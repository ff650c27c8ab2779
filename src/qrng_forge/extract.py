"""Min-entropy estimation and Toeplitz-hashing randomness extraction.

The extractor output block y is the GF(2) product T @ x of an m x n
Toeplitz matrix with the raw block, where T[i][j] = seed[m-1-i+j] over an
(n+m-1)-bit seed. Output bit i is one coefficient of a product of two
GF(2)[z] polynomials, one from the seed and one from the block, and the m
coefficients kept are a middle product: ``qf_toeplitz`` in ``_kernels.c``
computes just those, at the cost of one block-sized carry-less product, for
a range of blocks per call. :func:`_hash_blocks` splits a stream's blocks
into one range per CPU and hashes the ranges on threads of their own; the
output does not depend on how many. Its reference, and the path without a
compiler, is float64 FFT convolution (:class:`_FftHasher`); column sums are
bounded by n, so rounding stays 8+ orders of magnitude below 1/2, and a
guard raises if the margin ever degrades.

Output sizing follows the leftover-hash budget m = floor(n*H - 2*log2(1/eps)).
One seed serves every block of a stream: Toeplitz hashing is a strong
extractor, so seed reuse across blocks is sound.
"""

from __future__ import annotations

import math
import secrets
import threading
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _native
from .timetags import BitSequence, as_bit_array

#: Block length for the per-block worst-case entropy scan, a whole number
#: of bytes.
ENTROPY_BLOCK = 10**6

#: The number of one bits in each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


class BlockTooSmallError(ValueError):
    """n * h_min does not exceed the 2*log2(1/eps) security cost."""


class SeedError(ValueError):
    """Seed material shorter than the required n + m - 1 bits."""


class ToeplitzPrecisionError(RuntimeError):
    """FFT rounding margin degraded; results would not be trustworthy."""


@dataclass(frozen=True)
class EntropyReport:
    """Min-entropy summary of a bit sequence.

    ``h_min_per_bit`` is -log2(p_max) from the full-sequence empirical
    frequencies; ``per_block_min`` is the worst value over consecutive
    10^6-bit blocks (the whole sequence when shorter). ``degenerate``
    flags an all-equal input, which carries zero extractable entropy.
    """

    h_min_per_bit: float
    p_max: float
    n_bits: int
    per_block_min: float
    degenerate: bool = False


def min_entropy(bits) -> EntropyReport:
    """Empirical min-entropy of a bit sequence (needs >= 10^4 bits), with the
    ones counted from its packed bytes."""
    seq = BitSequence.from_bits(bits)
    n = len(seq)
    if n < 10**4:
        raise ValueError(f"min_entropy needs >= 1e4 bits, got {n}")
    counts = _POPCOUNT[seq.packed]
    ones = int(counts.sum())
    p1 = ones / n
    p_max = max(p1, 1.0 - p1)
    degenerate = ones == 0 or ones == n
    h = 0.0 if degenerate else -math.log2(p_max)

    if n <= ENTROPY_BLOCK:
        per_block = h
    else:
        # the worst block has the largest p_max, since -log2 falls
        n_blocks, row = n // ENTROPY_BLOCK, ENTROPY_BLOCK // 8
        p = counts[: n_blocks * row].reshape(n_blocks, row).sum(axis=1) / ENTROPY_BLOCK
        pm = float(np.maximum(p, 1.0 - p).max())
        per_block = 0.0 if pm >= 1.0 else -math.log2(pm)
    return EntropyReport(h, p_max, n, per_block, degenerate)


def output_length(n: int, h_min: float, epsilon: float) -> int:
    """Leftover-hash output size m = floor(n*h_min - 2*log2(1/epsilon)).

    Raises BlockTooSmallError unless n*h_min strictly exceeds the
    security cost.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= h_min <= 1.0:
        raise ValueError("h_min must lie in [0, 1]")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    cost = 2.0 * math.log2(1.0 / epsilon)
    budget = n * h_min
    if budget <= cost:
        raise BlockTooSmallError(
            f"n*h_min = {budget:.6g} does not exceed security cost {cost:.6g}"
        )
    # the tiny guard keeps decimal-intent values (e.g. h = 0.99) exact
    return int(math.floor(budget - cost + 1e-9))


@dataclass(frozen=True)
class ExtractorParams:
    """Toeplitz block geometry: n input bits -> m output bits.

    ``seed`` must hold exactly n + m - 1 bits; epsilon is the extractor
    security parameter (a power of two by convention).
    """

    n: int
    m: int
    epsilon: float
    seed: BitSequence

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if len(self.seed) != self.n + self.m - 1:
            raise ValueError(
                f"seed holds {len(self.seed)} bits, need n+m-1 = {self.n + self.m - 1}"
            )

    @cached_property
    def _seed_words(self) -> np.ndarray:
        """The seed as ``qf_toeplitz`` reads it: seed bit 64k + b is bit b of
        word k, with the last word zero-padded. Built once per params."""
        bits = np.zeros(-(-len(self.seed) // 64) * 64, np.uint8)
        bits[: len(self.seed)] = self.seed.to_bits()
        return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64, copy=False)

    @classmethod
    def sized(
        cls, n: int, h_min: float, epsilon: float, seed_source=None
    ) -> "ExtractorParams":
        """Construct with m from the leftover-hash budget and a drawn seed."""
        m = output_length(n, h_min, epsilon)
        seed = resolve_seed(seed_source, n + m - 1)
        return cls(n, m, epsilon, seed)


def resolve_seed(source, n_bits: int) -> BitSequence:
    """Materialize extractor seed bits from a flexible source.

    ``None`` draws fresh OS entropy; bytes, bit arrays, BitSequences and
    file paths supply recorded seeds (must hold at least ``n_bits``). Of
    bytes and files, only the first ceil(n_bits / 8) bytes are read.
    """
    n_bytes = (n_bits + 7) // 8
    if source is None:
        source = secrets.token_bytes(n_bytes)
    if isinstance(source, BitSequence):
        if len(source) < n_bits:
            raise SeedError(f"seed holds {len(source)} bits, need {n_bits}")
        return BitSequence.from_bits(source.to_bits()[:n_bits])
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            source = f.read(n_bytes)
    if isinstance(source, (bytes, bytearray)):
        if len(source) * 8 < n_bits:
            raise SeedError(f"seed holds {len(source) * 8} bits, need {n_bits}")
        packed = np.frombuffer(source, np.uint8, count=n_bytes)
        return BitSequence.from_bits(np.unpackbits(packed, count=n_bits))
    arr = as_bit_array(source)
    if arr.size < n_bits:
        raise SeedError(f"seed holds {arr.size} bits, need {n_bits}")
    return BitSequence.from_bits(arr[:n_bits])


# ---------------------------------------------------------------------------
# evaluation kernels


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): a length at which real FFTs
    are fast, the one ``scipy.fft.next_fast_len(n, real=True)`` gives."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _FftHasher:
    """Exact GF(2) Toeplitz product through float64 FFT convolution.

    With r the reversed seed (L = n + m - 1 bits), output bit i is
    sum_j seed[m-1-i+j] x[j] = sum_j r[n-1+i-j] x[j], entry n - 1 + i of the
    linear convolution r * x, which has L + n - 1 = 2n + m - 2 entries. A
    circular convolution of length N >= L adds entry k + N of the linear
    one onto entry k. For a kept entry k >= n - 1, so k + N >= 2n + m - 2
    lies past the end and nothing is added: only the discarded entries
    below n - 1 wrap. The transforms therefore use :func:`_fast_len` (L),
    the smallest 2^a 3^b 5^c >= L, not the full linear length.

    The transforms are ``numpy.fft``'s real FFTs, which are fast at any
    5-smooth length.
    """

    def __init__(self, params: ExtractorParams):
        self.n = params.n
        self.m = params.m
        r = params.seed.to_bits()[::-1].astype(np.float64)
        self._size = _fast_len(r.size)
        self._seed_fft = np.fft.rfft(r, self._size)

    def extract_bits(self, x: np.ndarray) -> np.ndarray:
        fx = np.fft.rfft(x.astype(np.float64), self._size)
        conv = np.fft.irfft(self._seed_fft * fx, self._size)[self.n - 1: self.n - 1 + self.m]
        rounded = np.rint(conv)
        margin = float(np.abs(conv - rounded).max(initial=0.0))
        if margin > 0.25:
            raise ToeplitzPrecisionError(
                f"FFT rounding margin {margin:.3g} exceeds 0.25"
            )
        return (rounded.astype(np.int64) & 1).astype(np.uint8)


def hash_workers(n_blocks: int) -> int:
    """The number of threads that run ``qf_toeplitz`` for ``n_blocks``
    blocks: :func:`_native.workers` for one job per block; 0 when the numpy
    reference runs instead."""
    return 0 if _native.library() is None else _native.workers(n_blocks)


def _hash_blocks(params: ExtractorParams, packed: np.ndarray, n_blocks: int) -> BitSequence:
    """Hash the first ``n_blocks`` n-bit blocks of the MSB-first bytes
    ``packed`` to as many m-bit outputs, by ``qf_toeplitz`` or, without a
    compiler, block by block through its reference, :class:`_FftHasher`.

    The kernel hashes :func:`hash_workers` ranges of consecutive blocks, the
    first on the calling thread and each other on a thread of its own, into
    a buffer per range; ctypes releases the GIL during each call. Each
    buffer is then ORed into the output at its byte offset, so no byte is
    written by two threads, whatever m is, and the output is the same for
    any number of ranges.

    ``packed`` must be a contiguous uint8 array holding every block;
    ValueError otherwise.
    """
    n, m = params.n, params.m
    x_p = _native.address(packed, np.uint8, (n_blocks * n + 7) // 8)
    lib = _native.library()
    if lib is None:
        hasher = _FftHasher(params)
        bits = np.unpackbits(packed, count=n_blocks * n)
        out = [hasher.extract_bits(bits[k * n:(k + 1) * n]) for k in range(n_blocks)]
        return BitSequence.from_bits(np.concatenate(out) if out else np.empty(0, np.uint8))
    seed = params._seed_words
    seed_p = _native.address(seed, np.uint64, seed.size)
    workers = hash_workers(n_blocks)
    bounds = [n_blocks * i // workers for i in range(workers + 1)]
    out = np.zeros((n_blocks * m + 7) // 8, np.uint8)
    # the first range starts at bit 0, so it is hashed into ``out`` itself
    bufs = [out] + [np.empty((k0 * m % 8 + (k1 - k0) * m + 7) // 8, np.uint8)
                    for k0, k1 in zip(bounds[1:-1], bounds[2:])]
    out_ps = [_native.address(buf, np.uint8, buf.size, writable=True) for buf in bufs]
    codes = [0] * workers

    def hash_range(i: int) -> None:
        codes[i] = lib.qf_toeplitz(seed_p, x_p, bounds[i], bounds[i + 1] - bounds[i], n, m,
                                   out_ps[i])

    threads = [threading.Thread(target=hash_range, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    hash_range(0)
    for thread in threads:
        thread.join()
    if min(codes) < 0:
        raise MemoryError("qf_toeplitz could not allocate its work space")
    for k0, buf in zip(bounds[1:-1], bufs[1:]):
        out[k0 * m // 8:k0 * m // 8 + buf.size] |= buf
    return BitSequence(out, n_blocks * m)


def toeplitz_extract(block, params: ExtractorParams) -> BitSequence:
    """Hash one n-bit block to m bits: y = T @ x over GF(2).

    Bit-identical to the direct matrix definition regardless of the
    evaluation path chosen internally.
    """
    block = BitSequence.from_bits(block)
    if len(block) != params.n:
        raise ValueError(f"block holds {len(block)} bits, params expect n={params.n}")
    return _hash_blocks(params, block.packed, 1)


@dataclass(frozen=True)
class ExtractionReport:
    """Accounting for one extraction run (the ratio report)."""

    h_min: float
    n: int
    m: int
    ratio: float
    bits_in: int
    bits_out: int
    blocks: int
    seconds: float | None = None
    mbps: float | None = None
    seed_sha256: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def extract_stream(
    raw: BitSequence,
    epsilon: float = 2.0**-50,
    n_block: int = 10**6,
    seed_source=None,
    acquisition_seconds: float | None = None,
) -> tuple[BitSequence, ExtractionReport, ExtractorParams]:
    """Extract a whole raw stream blockwise with a single shared seed.

    Output length per block comes from the full-sequence min-entropy;
    the trailing partial block is discarded. ``acquisition_seconds``
    (wall time of the raw acquisition) turns the output count into the
    effective post-processed bit rate.
    """
    import hashlib

    if len(raw) < n_block:
        raise ValueError(f"raw stream holds {len(raw)} bits, need >= n_block = {n_block}")
    report = min_entropy(raw)
    params = ExtractorParams.sized(n_block, report.h_min_per_bit, epsilon, seed_source)
    n_blocks = len(raw) // n_block
    out = _hash_blocks(params, raw.packed, n_blocks)
    mbps = None
    if acquisition_seconds:
        mbps = len(out) / acquisition_seconds / 1e6
    info = ExtractionReport(
        h_min=report.h_min_per_bit,
        n=params.n,
        m=params.m,
        ratio=params.m / params.n,
        bits_in=n_blocks * n_block,
        bits_out=len(out),
        blocks=n_blocks,
        seconds=acquisition_seconds,
        mbps=mbps,
        seed_sha256=hashlib.sha256(params.seed.to_bytes()).hexdigest(),
    )
    return out, info, params
