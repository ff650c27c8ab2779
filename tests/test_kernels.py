"""The C kernels against their numpy references, and the kernel cache."""

import ctypes
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qrng_forge import (
    BitSequence,
    Channel,
    CoincidenceConfig,
    ExtractorParams,
    TagStream,
    _native,
    find_coincidences,
)
from qrng_forge import coincidence, extract, randtests
from qrng_forge.extract import _hash_blocks

from conftest import naive_in_chunks, naive_toeplitz, needs_gcc

TAU = 1000


def scan_cases(rng):
    """(ta, tb) pairs: edge cases, then random streams of several densities."""
    e = np.empty(0, np.int64)
    a = np.array
    yield e, e
    yield e, a([5])
    yield a([0, 10, 20]), e
    yield a([100]), a([100])  # equal timestamps
    yield a([100, 100, 100]), a([100, 100])
    yield a([0]), a([TAU])  # |delta| exactly tau
    yield a([TAU]), a([0])
    yield a([0, 2 * TAU]), a([TAU])  # chain held together by exact-tau gaps
    yield a([0]), a([TAU + 1])
    yield a([0, 1100]), a([900, 2000])
    for spacing in (0.1, 1.0, 6.0, 600.0):  # mean spacing in units of tau
        for n in (1, 7, 300, 5000):
            span = max(1, int(2 * n * spacing * TAU))
            yield (np.sort(rng.integers(0, span, n)),
                   np.sort(rng.integers(0, span, int(rng.integers(1, 2 * n + 1)))))
    # dense all-pileup stream: one cluster holding every tag
    yield np.sort(rng.integers(0, 20 * TAU, 200)), np.sort(rng.integers(0, 20 * TAU, 150))
    # equal times across the two sides, and a pileup at equal times
    yield a([100, 100, 200, 200, 900]), a([100, 200, 200, 900, 900])
    ts = np.sort(rng.integers(0, 40, 600)) * (TAU // 2)
    yield ts[::2], ts[1::2]
    yield a([2 * TAU, 2 * TAU + 400, 5 * TAU]), a([0, 100, TAU + 500])  # a b-tag first


#: The ends of int64.
LO, HI = -(2**63), 2**63 - 1


def int64_edge_cases():
    """(ta, tb) pairs whose windows reach past an end of int64."""
    a = np.array
    yield a([LO, LO + 500]), a([LO + 900])
    yield a([HI - 1500, HI - 600]), a([HI - 100])
    yield a([LO]), a([HI])  # 2^64 - 1 apart: no match
    yield a([LO, HI - TAU]), a([LO + TAU, HI])  # exactly tau, at each end
    yield a([LO + TAU + 1]), a([LO])
    yield a([HI - 3000, HI - 2000, HI - 900, HI - 100]), a([HI - 2500, HI - 1500, HI])


@needs_gcc
def test_find_coincidences_same_on_both_paths(rng):
    # the one qf_coincide pass against _match_py: its cluster scan and its
    # full-table DP, ties included
    cfg = CoincidenceConfig(TAU)
    cases = [*scan_cases(rng), *int64_edge_cases()]
    fast = [find_coincidences(ta, tb, cfg) for ta, tb in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        ref = [find_coincidences(ta, tb, cfg) for ta, tb in cases]
    for (ta, tb), f, r in zip(cases, fast, ref):
        for name in ("times", "deltas"):
            g, w = getattr(f, name), getattr(r, name)
            assert g.dtype == w.dtype == np.int64 and np.array_equal(g, w), (ta, tb)
    assert [f.deltas.tolist() for f in fast[-6:]] == [
        [400], [500], [], [TAU, TAU], [], [500, 500, 100]]


def coincide_streams(rng):
    """Tag streams for qf_coincide: empty, one-sided, pileup-dense, full of
    equal times, and one cluster with no quiet gap."""
    def stream(ts, ch):
        ts = np.asarray(ts, np.int64)
        return TagStream(ts, np.asarray(ch, np.uint8), int(ts.max()) + 1 if ts.size else 1)

    yield stream([], [])
    yield stream([5, 10, 10, 20, 30], [2, 2, 0, 4, 4])  # no pair has both sides
    yield stream(np.arange(100) * 300, np.full(100, int(Channel.U2)))  # one side only
    for spacing in (30, 300, 3000):  # mean spacing in ps at tau = 1000 ps
        n = int(rng.integers(2000, 8000))
        yield stream(np.sort(rng.integers(0, n * spacing, n)), rng.integers(0, 6, n))
    ts = np.sort(rng.integers(0, 3000, 5000)) * 700  # many tags at equal times
    yield stream(ts, rng.integers(0, 6, ts.size))
    # test_one_dense_cluster's 60,000 tags, on a bit pair and on the Bell pair:
    # one cluster, which outgrows the kernel's first cluster buffer
    ta = np.arange(30_000, dtype=np.int64) * 700
    for a, b in (coincidence.STREAM_PAIRS[0], coincidence.STREAM_PAIRS[2]):
        t = np.concatenate([ta, ta + 300])
        order = np.argsort(t, kind="stable")
        yield stream(t[order], np.repeat([int(a), int(b)], ta.size)[order])


@needs_gcc
def test_coincide_c_equals_reference(rng):
    lib = _native.library()
    assert lib is not None
    cfg = CoincidenceConfig(TAU)
    for stream in coincide_streams(rng):
        want = coincidence._coincide_py(stream, cfg)
        got = coincidence._coincide_c(lib, stream, TAU)
        assert got.workers == 1
        assert got.bits == want.bits
        for g, w in zip((got.bell.times, got.bell.deltas), (want.bell.times, want.bell.deltas)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert (got.singles, got.matches, got.multi_tag_clusters) == (
            want.singles, want.matches, want.multi_tag_clusters)
        # roles above 5 for the bit channels: their tags are counted and join
        # no pair, and the Bell pair comes out as with every role given
        bits, bell, stats = coincidence._coincide_pass(
            lib, stream.timestamps, stream.channels, TAU, coincidence._BELL_ROLE)
        pair = coincidence.STREAM_PAIRS[2]
        assert not bits.any()
        assert np.array_equal(bell.times, want.bell.times)
        assert np.array_equal(bell.deltas, want.bell.deltas)
        assert stats[:6] == [0, 0, want.matches[pair], 0, 0, want.multi_tag_clusters[pair]]
        assert stats[6:] == [want.singles[c] for c in Channel]
    assert want.matches[coincidence.STREAM_PAIRS[2]] == 30_000


def split_cases(rng):
    """(timestamps, channels) of time-ordered streams for the channel split."""
    yield np.empty(0, np.int64), np.empty(0, np.uint8)
    yield np.array([1, 2, 3]), np.array([0, 2, 5])  # channels 1, 3 and 4 hold no tag
    yield np.arange(50), np.full(50, 4)  # every tag on one channel
    yield np.array([7, 7, 7, 7, 9, 9]), np.array([3, 1, 3, 0, 5, 1])  # equal timestamps
    ts = np.sort(rng.integers(0, 10**6, 20_000))  # many ties, every channel
    yield ts, rng.integers(0, 6, ts.size)
    ts = np.sort(rng.integers(0, 10**6, 3000))
    yield ts, rng.integers(0, 5, ts.size)  # no C2 tag


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_gcc),
    "numpy",
])
def test_bell_coincidences_equal_find_coincidences(rng, backend, monkeypatch):
    # the C1-C2 pair alone, by qf_coincide with the bit channels in no pair,
    # or by the reference without a compiler: find_coincidences on the two
    # channels' times
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    else:
        assert _native.library() is not None
    cfg = CoincidenceConfig(TAU)
    for stream in coincide_streams(rng):
        want = find_coincidences(stream.channel_times(Channel.C1),
                                 stream.channel_times(Channel.C2), cfg)
        got = coincidence.bell_coincidences(stream, cfg)
        for name in ("times", "deltas"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert len(got) == 30_000  # the last stream's one dense Bell cluster


def stream_at_int64_top(rng):
    """A tag stream of duration 2^63 - 1 whose windows reach past it: C1 tags
    at HI - 1500 and HI - 600 and a C2 tag at HI - 100 (one match, delta
    500), after a pileup of every channel."""
    ts = np.concatenate([HI - rng.integers(2000, 40 * TAU, 400), [HI - 1500, HI - 600, HI - 100]])
    ch = np.concatenate([rng.integers(0, 6, 400), [4, 4, 5]])
    order = np.argsort(ts, kind="stable")
    return TagStream(ts[order], ch[order].astype(np.uint8), HI)


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_gcc),
    "numpy",
])
def test_stream_matching_at_int64_top(rng, backend, monkeypatch):
    # coincide_stream and bell_coincidences where tag + tau leaves int64,
    # against _coincide_py on the numpy path (find_coincidences by _match_py)
    cfg = CoincidenceConfig(TAU)
    stream = stream_at_int64_top(rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        want = coincidence._coincide_py(stream, cfg)
    assert want.bell.deltas[-1] == 500
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    got = coincidence.coincide_stream(stream, cfg)
    assert got.bits == want.bits
    assert (got.singles, got.matches, got.multi_tag_clusters) == (
        want.singles, want.matches, want.multi_tag_clusters)
    for bell in (got.bell, coincidence.bell_coincidences(stream, cfg)):
        assert np.array_equal(bell.times, want.bell.times)
        assert np.array_equal(bell.deltas, want.bell.deltas)


def test_kernel_table_names_every_kernel():
    # the functions _kernels.c exports are exactly the kernels _native types,
    # each typed with as many arguments as its prototype has and the type it
    # returns: a stale entry would call the kernel with the wrong arguments
    returns = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "void": None}
    exported = re.findall(r"^(?!static)(\w+) (qf_\w+)\(([^)]*)\)", _native.SOURCE.read_text(),
                          re.M)
    names = [name for _, name, _ in exported]
    assert len(names) == len(set(names))
    assert set(names) == set(_native.KERNELS)
    for ret, name, params in exported:
        argtypes, restype = _native.KERNELS[name]
        assert len(params.split(",")) == len(argtypes), name
        assert restype is returns[ret], name


def channel_times_by_mask(stream):
    return [stream.timestamps[stream.channels == int(c)] for c in Channel]


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_gcc),
    "numpy",
])
def test_channel_times_read_only(rng, backend, monkeypatch):
    # the split runs no kernel, so it is the same on either backend
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    for ts, ch in split_cases(rng):
        ts = np.asarray(ts, np.int64)
        stream = TagStream(ts, np.asarray(ch, np.uint8), int(ts.max()) + 1 if ts.size else 1)
        first = [stream.channel_times(c) for c in Channel]
        for got, want in zip(first, channel_times_by_mask(stream)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[:1] = 0
        assert stream.counts_by_channel() == {c: a.size for c, a in zip(Channel, first)}


def clmul_py(a, b):
    """Carry-less product of two nonnegative integers by shift and xor."""
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    return r


def middle_product_py(a, b):
    """The n 128-bit entries of the middle product of the (2n - 1)-word a
    and the n-word b: entry k is the xor over j of the carry-less products
    a[k + n - 1 - j] b[j]. With every word spread 128 bits apart, one
    big-int product holds each sum i + j in a slot of its own."""
    n = len(b)
    spread_a = sum(int(w) << (128 * i) for i, w in enumerate(a))
    spread_b = sum(int(w) << (128 * j) for j, w in enumerate(b))
    product = clmul_py(spread_a, spread_b)
    return [product >> (128 * (k + n - 1)) & (2**128 - 1) for k in range(n)]


#: Middle-product sizes on both sides of each edge of the recursion: the
#: base case holds up to 24 words, and an odd size pads its upper half.
MP_SIZES = [*range(1, 51), 95, 96, 97, 98, 99, 129, 130, 193, 194]


@needs_gcc
@pytest.mark.parametrize("which", [0, 1, 2], ids=["portable", "pclmul", "vpclmul"])
def test_middle_product_c_equals_shift_xor(rng, which):
    # qf_middle_product runs the product of qf_toeplitz on each base case
    lib = _native.library()
    special = [0, 1, 1 << 63, 2**64 - 1]
    cases = [([a], [b]) for a in special for b in special]
    cases += [(rng.integers(0, 2**64, 2 * n - 1, dtype=np.uint64),
               rng.integers(0, 2**64, n, dtype=np.uint64)) for n in [1] * 100 + MP_SIZES]
    cases.append(([2**64 - 1] * 79, [2**64 - 1] * 40))
    for a, b in cases:
        a, b = np.array(a, np.uint64), np.array(b, np.uint64)
        r = np.empty(2 * b.size, np.uint64)
        code = lib.qf_middle_product(_native.address(a, np.uint64, a.size),
                                     _native.address(b, np.uint64, b.size), b.size, which,
                                     _native.address(r, np.uint64, r.size, writable=True))
        if code == -2:
            pytest.skip("this CPU runs without this base case")
        assert code == 0
        got = [int(lo) | int(hi) << 64 for lo, hi in r.reshape(-1, 2)]
        assert got == middle_product_py(a, b), b.size


#: Block sizes whose nw = ceil(n / 64) words make a middle product of nw + 1
#: entries at the edges of MP_SIZES, a whole and a part word each.
EDGE_BLOCKS = [64 * nw - d for nw in (23, 24, 25, 47, 48, 49, 96, 97) for d in (0, 63)]


@needs_gcc
@pytest.mark.parametrize("n", [1, 63, 64, 65, 8193, *EDGE_BLOCKS])
def test_toeplitz_c_equals_naive_at_recursion_edges(rng, n):
    # two blocks per call, m from 1 to n; test_middle_product_c_equals_shift_xor
    # holds both base cases at these product sizes
    for m in sorted({1, max(1, n // 2), n}):
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        params = ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed))
        x = rng.integers(0, 2, 2 * n, dtype=np.uint8)
        got = _hash_blocks(params, np.packbits(x), 2).to_bits()
        for k in range(2):
            assert np.array_equal(got[k * m:(k + 1) * m],
                                  naive_in_chunks(seed, x[k * n:(k + 1) * n], m)), (n, m, k)


@needs_gcc
def test_toeplitz_output_same_for_any_worker_count(rng, monkeypatch):
    # odd m, and n % 8 != 0: the ranges' seams fall inside bytes
    n, m, n_blocks = 1001, 777, 7
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    params = ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed))
    x = rng.integers(0, 2, n_blocks * n, dtype=np.uint8)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_native, "workers", lambda jobs, w=workers: min(w, jobs))
        assert extract.hash_workers(n_blocks) == workers
        outputs.append(_hash_blocks(params, np.packbits(x), n_blocks))
    assert outputs[0] == outputs[1] == outputs[2]
    bits = outputs[0].to_bits()
    for k in range(n_blocks):
        assert np.array_equal(bits[k * m:(k + 1) * m], naive_toeplitz(seed, x[k * n:(k + 1) * n], m))


def test_address_checks_dtype_contiguity_and_size():
    a = np.zeros(8, np.int64)
    assert _native.address(a, np.int64, 8) == a.ctypes.data
    with pytest.raises(ValueError):
        _native.address(a.astype(np.int32), np.int64, 8)  # wrong dtype
    with pytest.raises(ValueError):
        _native.address(a, np.int64, 9)  # short buffer
    with pytest.raises(ValueError):
        _native.address(a[::2], np.int64, 4)  # not contiguous
    with pytest.raises(ValueError):
        _native.address(list(range(8)), np.int64, 8)  # not an array
    a.setflags(write=False)
    with pytest.raises(ValueError):
        _native.address(a, np.int64, 8, writable=True)  # read-only output


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_gcc),
    "numpy",
])
def test_toeplitz_rejects_bad_buffers(rng, backend, monkeypatch):
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    n, m = 64, 50
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    params = ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed))
    x = rng.integers(0, 2, 2 * n, dtype=np.uint8)
    packed = np.packbits(x)
    with pytest.raises(ValueError):
        _hash_blocks(params, packed.astype(np.int64), 2)  # wrong dtype
    with pytest.raises(ValueError):
        _hash_blocks(params, packed[:-1], 2)  # short input
    with pytest.raises(ValueError):
        _hash_blocks(params, np.repeat(packed, 2)[::2], 2)  # not contiguous
    got = _hash_blocks(params, packed, 2).to_bits()  # the same bytes, correct, pass
    for k in range(2):
        assert np.array_equal(got[k * m:(k + 1) * m], naive_toeplitz(seed, x[k * n:(k + 1) * n], m))


def record_at_end(rng, n, reverse):
    """n random bits whose cumulative-sum maximum is reached only at the last
    partial sum: max |S_j| at j = n, or with ``reverse`` max |S_n - S_j| at
    j = 0, so that an index off by one there changes it."""
    while True:
        x = rng.integers(0, 2, n, dtype=np.uint8)
        walk = np.abs(np.cumsum((x[::-1] if reverse else x).astype(np.int64) * 2 - 1))
        if walk[-1] > walk[:-1].max():
            return x


def stats_cases(rng):
    """(bits, block_size, pattern_bits) for qf_bit_stats against its reference."""
    default = (randtests.BLOCK_SIZE, randtests.PATTERN_BITS)
    for reverse in (False, True):
        yield record_at_end(rng, 10_007, reverse), *default
    # lengths off every multiple of 8, of 128 and of the longest-run blocks, and
    # each _LONGEST_RUN_TABLES row at and around its boundary
    for n in (0, 1, 2, 3, 7, 9, 63, 65, 100, 127, 128, 129, 1001, 6271, 6272, 6273,
              10_007, 749_999, 750_000, 750_001):
        yield rng.integers(0, 2, n, dtype=np.uint8), *default
    for n in (128, 6272, 750_000, 10_007):
        yield np.zeros(n, np.uint8), *default
        yield np.ones(n, np.uint8), *default
        yield (np.arange(n) % 2).astype(np.uint8), *default
    # fewer bits than the pattern length minus 1: the patterns wrap more than once
    for n in range(1, 8):
        yield rng.integers(0, 2, n, dtype=np.uint8), 128, 9
    # other block sizes and pattern lengths
    for block_size, pattern_bits in ((1, 0), (3, 1), (64, 2), (100, 5), (1000, 11)):
        yield rng.integers(0, 2, 20_011, dtype=np.uint8), block_size, pattern_bits


def assert_stats_equal(got, want):
    for name in ("n", "ones", "transitions", "cusum_z", "block_size", "pattern_bits"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("block_ones", "run_counts", "patterns"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@needs_gcc
@pytest.mark.parametrize("offset", [0, 5])
def test_bit_stats_c_equals_numpy(rng, offset):
    # the kernel reads a sequence at any bit offset into a packed buffer
    assert _native.library() is not None
    for x, block_size, pattern_bits in stats_cases(rng):
        framed = np.concatenate([rng.integers(0, 2, offset, dtype=np.uint8), x,
                                 rng.integers(0, 2, 11, dtype=np.uint8)])
        got = randtests._bit_stats(np.packbits(framed), offset, x.size, block_size, pattern_bits)
        assert_stats_equal(got, randtests._bit_stats_py(x, block_size, pattern_bits))


def p_values(bits):
    """Every battery P-value of ``bits``, plus the tests at other parameters."""
    out = [randtests.run_test(t, bits).p_value for t in randtests.TEST_IDS]
    out += [randtests.block_frequency_test(bits, 100), randtests.block_frequency_test(bits, 1000),
            *randtests.serial_test(bits, 2), *randtests.serial_test(bits, 4),
            randtests.approximate_entropy_test(bits, 0), randtests.approximate_entropy_test(bits, 4)]
    return out


@needs_gcc
def test_p_values_c_equal_numpy(rng, monkeypatch):
    cases = [x for x, block_size, pattern_bits in stats_cases(rng)
             if x.size >= 1000 and (block_size, pattern_bits) == (128, 3)]
    fast = [p_values(x) for x in cases] + [p_values(BitSequence.from_bits(x)) for x in cases[:3]]
    monkeypatch.setattr(_native, "library", lambda: None)
    ref = [p_values(x) for x in cases] + [p_values(BitSequence.from_bits(x)) for x in cases[:3]]
    assert fast == ref


@needs_gcc
@pytest.mark.parametrize("n_sequences, seq_len", [(9, 10_007), (2, 750_001)])
def test_battery_c_equals_numpy(rng, monkeypatch, n_sequences, seq_len):
    # sequences start mid-byte; one is all ones, one alternates, the rest random,
    # two of them with their cumulative-sum maxima at the ends
    seqs = [np.ones(seq_len, np.uint8), (np.arange(seq_len) % 2).astype(np.uint8)]
    seqs += [record_at_end(rng, seq_len, reverse) for reverse in (False, True)[: n_sequences - 2]]
    seqs += [rng.integers(0, 2, seq_len, dtype=np.uint8) for _ in range(n_sequences - len(seqs))]
    bits = np.concatenate(seqs + [np.ones(5, np.uint8)])
    fast = [randtests.run_battery(b, n_sequences, seq_len) for b in (bits, BitSequence.from_bits(bits))]
    monkeypatch.setattr(_native, "library", lambda: None)
    ref = randtests.run_battery(bits, n_sequences, seq_len)
    assert fast[0] == ref and fast[1] == ref


def test_bit_stats_rejects_bad_arguments(rng):
    packed = np.packbits(rng.integers(0, 2, 1000, dtype=np.uint8))
    with pytest.raises(ValueError):
        randtests._bit_stats(packed, 0, 1000, block_size=0)
    with pytest.raises(ValueError):
        randtests._bit_stats(packed, 0, 1000, pattern_bits=-1)
    with pytest.raises(ValueError):
        randtests._bit_stats(packed, 0, 1000, pattern_bits=33)
    with pytest.raises(ValueError):
        randtests._bit_stats(packed, 1, 1000)  # past the end of the buffer
    with pytest.raises(ValueError):
        randtests._bit_stats(packed.astype(np.int64), 0, 1000)  # wrong dtype


#: qf_sample's kinds: the numpy.random.Generator method each ports
NORMAL, INTEGERS, UNIFORM, POISSON = 0, 1, 2, 3
#: numpy's ziggurat_nor_r: the normals beyond it come from the ziggurat's tail
ZIGGURAT_NOR_R = 3.6541528853610087963519472518


def sample(key, kind, n, off=0, rng=0, lam=0.0):
    """n draws of qf_sample's sampler ``kind`` from a fresh Philox of ``key``,
    and the normals' tail and wedge counts."""
    out = np.empty(n, np.float64 if kind in (NORMAL, UNIFORM) else np.int64)
    slow = np.zeros(2, np.int64)
    code = _native.library().qf_sample(
        int(key[0]), int(key[1]), kind, off, rng, lam, n,
        _native.address(out, out.dtype, n, writable=True), _native.address(slow, np.int64, 2, True))
    assert code == 0
    return out, slow


def generator(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))


@needs_gcc
def test_normal_sampler_equals_numpy(rng):
    key = rng.integers(0, 2**64, 2, dtype=np.uint64)
    got, (tail, wedge) = sample(key, NORMAL, 10**6)
    want = generator(key).standard_normal(10**6)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # -0.0 included
    # the rare paths ran often enough to be compared: each tail draw lands beyond r
    assert tail >= 100 and wedge >= 100
    assert tail == np.count_nonzero(np.abs(got) > ZIGGURAT_NOR_R)


@needs_gcc
@pytest.mark.parametrize("span", [0, 1, 2, 999_999_999, 2**32 - 1])
def test_integer_sampler_equals_numpy(rng, span):
    # integers(off, off + span + 1): span 0 draws nothing, 2^32 - 1 takes raw
    # 32-bit draws, and a slice's times take span SLICE_PS - 1
    key = rng.integers(0, 2**64, 2, dtype=np.uint64)
    off = 10**12 + 7
    got, _ = sample(key, INTEGERS, 10**6, off=off, rng=span)
    want = generator(key).integers(off, off + span + 1, 10**6, dtype=np.int64)
    assert np.array_equal(got, want)


@needs_gcc
def test_integer_sampler_rejects_64_bit_ranges():
    out, slow = np.empty(1, np.int64), np.zeros(2, np.int64)
    assert _native.library().qf_sample(1, 2, INTEGERS, 0, 2**32, 0.0, 1, _native.address(out, np.int64, 1, True),
                                       _native.address(slow, np.int64, 2, True)) == -1


@needs_gcc
@pytest.mark.parametrize("lam", [0.0, 1e-3, 5.0, 9.999, 10.0, 3000.0, 1e8])
def test_poisson_sampler_equals_numpy(rng, lam):
    # multiplication below 10, PTRS (and its log-gamma) from 10 on
    key = rng.integers(0, 2**64, 2, dtype=np.uint64)
    got, _ = sample(key, POISSON, 10**6, lam=lam)
    assert np.array_equal(got, generator(key).poisson(lam, 10**6))


@needs_gcc
def test_uniform_sampler_equals_numpy(rng):
    key = rng.integers(0, 2**64, 2, dtype=np.uint64)
    got, _ = sample(key, UNIFORM, 10**6)
    assert np.array_equal(got, generator(key).random(10**6))


@needs_gcc
def test_kernel_source_compiles_without_warnings(tmp_path):
    # a full compile at the library's -O3, since some warnings need the optimizer;
    # keeps the target-attribute and intrinsic code and every new kernel warning-clean
    warn = ("-Wall", "-Wextra", "-pedantic", "-Werror")
    result = subprocess.run(["gcc", *warn, "-o", str(tmp_path / "kernels.so"), str(_native.SOURCE),
                             *_native.CFLAGS, *_native.LIBS],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_library_key_hashes_source_compiler_flags_and_machine(tmp_path, monkeypatch):
    key = _native._library_key("gcc")
    assert _native._library_key("gcc") == key
    assert _native._library_key("/usr/local/bin/gcc") != key
    with monkeypatch.context() as m:
        m.setattr(_native, "CFLAGS", (*_native.CFLAGS, "-march=native"))
        assert _native._library_key("gcc") != key
    with monkeypatch.context() as m:
        m.setattr(_native.platform, "machine", lambda: "riscv64")
        assert _native._library_key("gcc") != key
    edited = tmp_path / "_kernels.c"
    edited.write_bytes(_native.SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(_native, "SOURCE", edited)
    assert _native._library_key("gcc") != key


def test_missing_compiler_warns_once_and_falls_back(monkeypatch):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    _native.library.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _native.library() is None
            assert _native.library() is None
            cc = find_coincidences(np.array([0, 1100]), np.array([900, 2000]), CoincidenceConfig(TAU))
            stream = TagStream([1, 2, 2, 5], [3, 0, 3, 1], 10)
            split = [stream.channel_times(c) for c in Channel]
        assert len(cc) == 2
        for got, want in zip(split, channel_times_by_mask(stream)):
            assert np.array_equal(got, want)
        assert [w.category for w in caught] == [_native.NativeKernelWarning]
    finally:
        _native.library.cache_clear()


@needs_gcc
def test_second_process_reuses_compiled_kernel(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(Path(_native.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    probe = "from qrng_forge import _native; assert _native.library() is not None"

    def run():
        subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env, check=True, timeout=120)
        return {p.name: p.stat().st_mtime_ns for p in (tmp_path / "qrng_forge").iterdir()}

    first = run()
    assert len(first) == 1 and next(iter(first)).endswith(".so")
    assert run() == first
