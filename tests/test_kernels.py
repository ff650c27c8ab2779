"""The C kernels against their numpy references, and the kernel cache."""

import os
import shutil
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
from qrng_forge import coincidence, timetags
from qrng_forge.extract import _ByteTableHasher, _fr_accumulate_py

from conftest import naive_toeplitz

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")

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


@needs_gcc
def test_cluster_scan_c_equals_numpy(rng):
    # qf_match's banded DP against the full-table reference, ties included
    assert _native.library() is not None
    for ta, tb in scan_cases(rng):
        ta = ta.astype(np.int64)
        tb = tb.astype(np.int64)
        want = coincidence._match_py(ta, tb, TAU)
        got = coincidence._match(ta, tb, TAU)
        for w, g in zip(want, got):
            assert w.dtype == g.dtype and np.array_equal(w, g), (ta, tb)


@needs_gcc
def test_find_coincidences_same_on_both_paths(rng):
    cfg = CoincidenceConfig(TAU)
    cases = list(scan_cases(rng))
    fast = [find_coincidences(ta, tb, cfg) for ta, tb in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        ref = [find_coincidences(ta, tb, cfg) for ta, tb in cases]
    for f, r in zip(fast, ref):
        for name in ("times", "deltas"):
            assert np.array_equal(getattr(f, name), getattr(r, name))


def split_cases(rng):
    """(timestamps, channels) of time-ordered streams for the channel split."""
    yield np.empty(0, np.int64), np.empty(0, np.uint8)
    yield np.array([1, 2, 3]), np.array([0, 2, 5])  # channels 1, 3 and 4 hold no tag
    yield np.arange(50), np.full(50, 4)  # every tag on one channel
    yield np.array([7, 7, 7, 7, 9, 9]), np.array([3, 1, 3, 0, 5, 1])  # equal timestamps
    ts = np.sort(rng.integers(0, 10**6, 20_000))  # many ties, every channel
    yield ts, rng.integers(0, 6, ts.size)


@needs_gcc
def test_split_channels_c_equals_numpy(rng):
    lib = _native.library()
    for ts, ch in split_cases(rng):
        ts = np.asarray(ts, np.int64)
        ch = np.asarray(ch, np.uint8)
        want = timetags._split_channels_np(ts, ch)
        got = timetags._split_channels_c(lib, ts, ch)
        assert len(got) == len(want) == 6
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and np.array_equal(w, g), (ts, ch)


def channel_times_by_mask(stream):
    return [stream.timestamps[stream.channels == int(c)] for c in Channel]


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_gcc),
    "numpy",
])
def test_channel_times_read_only_and_cached(rng, backend, monkeypatch):
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    ts = np.sort(rng.integers(0, 10**6, 3000))
    stream = TagStream(ts, rng.integers(0, 5, ts.size), 10**6)  # no C2 tag
    first = [stream.channel_times(c) for c in Channel]
    for got, want in zip(first, channel_times_by_mask(stream)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[:1] = 0
    assert all(stream.channel_times(c) is a for c, a in zip(Channel, first))


@needs_gcc
def test_fr_accumulate_c_equals_numpy(rng):
    assert _native.library() is not None
    for n, m in ((1, 1), (7, 3), (8, 8), (64, 50), (1000, 977), (8192, 8110)):
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        hasher = _ByteTableHasher(ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed)))
        table, mb = hasher._table, hasher._mb
        for density in (0.0, 0.5, 1.0):
            x = (rng.random(n) < density).astype(np.uint8)
            xbytes = np.packbits(x[::-1], bitorder="little")
            want = np.zeros(mb, np.uint8)
            _fr_accumulate_py(table, xbytes, mb, want)
            got = np.zeros(mb, np.uint8)
            hasher.accumulate(xbytes, got)
            assert np.array_equal(got, want), (n, m, density)
            assert np.array_equal(hasher.extract_bits(x), naive_toeplitz(seed, x, m)), (n, m)


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
def test_fr_accumulate_rejects_bad_buffers(rng, backend, monkeypatch):
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    n, m = 64, 50
    seed = BitSequence.from_bits(rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    hasher = _ByteTableHasher(ExtractorParams(n, m, 2.0**-50, seed))
    xbytes = np.packbits(rng.integers(0, 2, n, dtype=np.uint8), bitorder="little")
    mb = hasher._mb
    with pytest.raises(ValueError):
        hasher.accumulate(xbytes.astype(np.int64), np.zeros(mb, np.uint8))  # wrong dtype
    with pytest.raises(ValueError):
        hasher.accumulate(xbytes, np.zeros(mb - 1, np.uint8))  # short output
    with pytest.raises(ValueError):
        hasher.accumulate(np.zeros(hasher._table.shape[1], np.uint8), np.zeros(mb, np.uint8))
    out = np.zeros(mb, np.uint8)
    hasher.accumulate(xbytes, out)  # the same buffers, correct, pass
    want = np.zeros(mb, np.uint8)
    _fr_accumulate_py(hasher._table, xbytes, mb, want)
    assert np.array_equal(out, want)


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
