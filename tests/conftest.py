import shutil

import numpy as np
import pytest

from qrng_forge import Channel, TagStream

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")


def make_stream(times, channels, duration=None):
    times = np.asarray(times, dtype=np.int64)
    if duration is None:
        duration = int(times.max()) + 1 if times.size else 1
    if np.isscalar(channels) or isinstance(channels, Channel):
        channels = np.full(times.size, int(channels), dtype=np.uint8)
    order = np.argsort(times, kind="stable")
    return TagStream(times[order], np.asarray(channels, dtype=np.uint8)[order], duration)


def naive_toeplitz(seed_bits: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Direct GF(2) product with the explicit matrix T[i][j] = seed[m-1-i+j]."""
    n = x.size
    idx = (m - 1 - np.arange(m))[:, None] + np.arange(n)[None, :]
    t_matrix = seed_bits[idx].astype(np.int64)
    return ((t_matrix @ x.astype(np.int64)) & 1).astype(np.uint8)


def naive_in_chunks(seed, x, m, chunk=256):
    """naive_toeplitz holding at most ``chunk`` rows of T at once: rows i0 to
    i1 - 1 of T are the whole matrix of the seed from bit m - i1 on."""
    n = x.size
    return np.concatenate([
        naive_toeplitz(seed[m - i1: m - i1 + n + i1 - i0 - 1], x, i1 - i0)
        for i0 in range(0, m, chunk) for i1 in [min(m, i0 + chunk)]
    ])


def optimal_nearest_matching(ta, tb, tau):
    """Exhaustive maximum-cardinality matching, ties broken by minimum
    total |delta|; returns (count, total_abs_delta)."""
    ta = list(ta)
    tb = list(tb)
    cache = {}

    def best(i, used_mask):
        if i == len(ta):
            return (0, 0)
        key = (i, used_mask)
        if key in cache:
            return cache[key]
        # option: leave ta[i] unmatched
        count, cost = best(i + 1, used_mask)
        result = (count, cost)
        for j, t in enumerate(tb):
            if used_mask & (1 << j):
                continue
            d = abs(t - ta[i])
            if d <= tau:
                sub_count, sub_cost = best(i + 1, used_mask | (1 << j))
                cand = (sub_count + 1, sub_cost + d)
                if cand[0] > result[0] or (cand[0] == result[0] and cand[1] < result[1]):
                    result = cand
        cache[key] = result
        return result

    return best(0, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
