import hashlib
import math

import numpy as np
import pytest

from qrng_forge import (
    BitSequence,
    ExtractorParams,
    extract_stream,
    min_entropy,
    output_length,
    toeplitz_extract,
)
from qrng_forge import _native
from qrng_forge.extract import (
    BlockTooSmallError,
    ExtractionReport,
    SeedError,
    _FftHasher,
    _fast_len,
    _hash_blocks,
    resolve_seed,
)

from conftest import naive_in_chunks, naive_toeplitz


def exact_bias_bits(n, ones):
    bits = np.zeros(n, np.uint8)
    bits[:ones] = 1
    return bits


class TestMinEntropy:
    def test_perfectly_balanced(self):
        report = min_entropy(exact_bias_bits(20_000, 10_000))
        assert report.h_min_per_bit == 1.0
        assert report.p_max == 0.5
        assert not report.degenerate

    def test_sixty_percent_bias(self):
        report = min_entropy(exact_bias_bits(100_000, 60_000))
        assert report.h_min_per_bit == pytest.approx(-math.log2(0.6), abs=1e-12)
        assert report.h_min_per_bit == pytest.approx(0.737, abs=0.005)

    def test_all_equal_degenerate(self):
        report = min_entropy(np.ones(20_000, np.uint8))
        assert report.h_min_per_bit == 0.0
        assert report.degenerate

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="1e4"):
            min_entropy(np.zeros(100, np.uint8))

    def test_per_block_minimum_tracks_worst_block(self):
        block_a = exact_bias_bits(10**6, 500_000)  # h = 1
        block_b = exact_bias_bits(10**6, 700_000)  # h = -log2(0.7)
        report = min_entropy(np.concatenate([block_a, block_b]))
        assert report.per_block_min == pytest.approx(-math.log2(0.7), abs=1e-12)
        assert report.per_block_min < report.h_min_per_bit

    def test_packed_counts_equal_unpacked_reference(self, rng):
        # 3e6 + 5 bits, so the last byte is partial, with the middle 1e6-bit block biased
        bits = (rng.random(3 * 10**6 + 5) < 0.5).astype(np.uint8)
        bits[10**6: 2 * 10**6] = rng.permutation(exact_bias_bits(10**6, 700_000))
        report = min_entropy(BitSequence.from_bits(bits))
        p1 = int(bits.sum()) / bits.size
        assert report.p_max == max(p1, 1.0 - p1)
        assert report.h_min_per_bit == -math.log2(report.p_max)
        assert report.n_bits == bits.size
        worst = math.inf
        for k in range(3):
            p = bits[k * 10**6:(k + 1) * 10**6].mean()
            worst = min(worst, -math.log2(max(p, 1.0 - p)))
        assert report.per_block_min == worst
        assert report.per_block_min == pytest.approx(-math.log2(0.7), abs=1e-12)

    def test_accepts_bitsequence(self, rng):
        bits = rng.integers(0, 2, 50_000, dtype=np.uint8)
        assert min_entropy(BitSequence.from_bits(bits)).n_bits == 50_000


class TestOutputLength:
    def test_paper_scale_block(self):
        assert output_length(10**6, 0.99, 2.0**-50) == 989_900

    def test_lossless_bound(self):
        assert output_length(10**6, 1.0, 1.0) == 10**6

    def test_boundary_strictness(self):
        with pytest.raises(BlockTooSmallError):
            output_length(200, 0.5, 2.0**-50)  # 100 <= 100

    def test_just_above_boundary(self):
        assert output_length(202, 0.5, 2.0**-50) == 1


class TestToeplitzExtract:
    def make_params(self, seed_bits, n, m):
        return ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed_bits))

    def test_one_by_one_identity(self):
        params = self.make_params([1], 1, 1)
        assert toeplitz_extract([1], params).to_bits().tolist() == [1]

    def test_frozen_small_example(self):
        # seed 110101, n=4, m=3, x=1011; rows of T are seed[2-i+j]:
        #   [0,1,0,1], [1,0,1,0], [1,1,0,1]  ->  y = [1, 0, 0]
        params = self.make_params([1, 1, 0, 1, 0, 1], 4, 3)
        y = toeplitz_extract([1, 0, 1, 1], params)
        assert y.to_bits().tolist() == [1, 0, 0]
        seed = np.array([1, 1, 0, 1, 0, 1], np.uint8)
        x = np.array([1, 0, 1, 1], np.uint8)
        assert np.array_equal(y.to_bits(), naive_toeplitz(seed, x, 3))

    def test_zero_seed_zero_output(self, rng):
        params = self.make_params(np.zeros(31, np.uint8), 16, 16)
        x = rng.integers(0, 2, 16, dtype=np.uint8)
        assert toeplitz_extract(x, params).to_bits().sum() == 0

    def test_bit_exact_vs_naive_oracle(self, rng):
        cases = [(n, int(rng.integers(1, n + 1))) for n in rng.integers(1, 65, 1000)]
        # every word count to past two schoolbook sizes, then byte and word edges
        for n in [*range(1, 131), 255, 256, 257, 1000, 4095, 4096, 8191, 8192]:
            cases += [(n, m) for m in sorted({1, max(1, n // 10), max(1, n - 1), n})]
        for n, m in cases:
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            x = rng.integers(0, 2, n, dtype=np.uint8)
            params = self.make_params(seed, n, m)
            got = toeplitz_extract(x, params).to_bits()
            assert np.array_equal(got, naive_in_chunks(seed, x, m)), (n, m)

    def test_fft_path_spot_checked_at_scale(self, rng):
        # the kernel against its FFT reference at the paper's block size, with
        # m near n and m much smaller than n, three blocks in one call
        n = 10**6
        for m in (970_000, 1000):
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            params = self.make_params(seed, n, m)
            x = rng.integers(0, 2, 3 * n, dtype=np.uint8)
            y = _hash_blocks(params, np.packbits(x), 3).to_bits()
            fft = _FftHasher(params)
            for k in range(3):
                block = x[k * n:(k + 1) * n]
                assert np.array_equal(y[k * m:(k + 1) * m], fft.extract_bits(block)), (m, k)
            # independent exact parity oracle on 100 random output rows of the last block
            for i in rng.integers(0, m, 100):
                row = seed[m - 1 - i: m - 1 - i + n]
                assert y[2 * m + i] == (int(np.dot(row.astype(np.int64), block)) & 1)

    @pytest.mark.parametrize("n, m", [
        (1001, 1000),  # m close to n; n + m - 1 = 2000 is a fast length, so no padding
        (1500, 1500),
        (1990, 11),  # m much smaller than n, again 2000 with no padding
        (1500, 1),
        (1237, 37),
    ])
    def test_fft_length_is_seed_length(self, rng, n, m):
        # a circular convolution of length n + m - 1 is exact on the kept outputs
        from scipy.fft import next_fast_len

        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        hasher = _FftHasher(ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed)))
        assert hasher._size == next_fast_len(n + m - 1, real=True)
        for density in (0.5, 1.0):
            x = (rng.random(n) < density).astype(np.uint8)
            assert np.array_equal(hasher.extract_bits(x), naive_toeplitz(seed, x, m)), (n, m)

    def test_fast_len_equals_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        ns = list(range(1, 20_001)) + [10**6 - 1, 10**6, 10**6 + 7, 2**40 + 1, 3**25 + 1]
        for n in ns:
            assert _fast_len(n) == next_fast_len(n, real=True), n

    def test_linearity_over_gf2(self, rng):
        n, m = 512, 400
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        params = self.make_params(seed, n, m)
        for _ in range(20):
            x1 = rng.integers(0, 2, n, dtype=np.uint8)
            x2 = rng.integers(0, 2, n, dtype=np.uint8)
            lhs = toeplitz_extract(x1 ^ x2, params).to_bits()
            rhs = toeplitz_extract(x1, params).to_bits() ^ toeplitz_extract(x2, params).to_bits()
            assert np.array_equal(lhs, rhs)

    def test_deterministic(self, rng):
        n, m = 257, 200
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        params = self.make_params(seed, n, m)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        assert toeplitz_extract(x, params) == toeplitz_extract(x, params)

    def test_length_mismatch(self):
        params = self.make_params(np.zeros(7, np.uint8), 4, 4)
        with pytest.raises(ValueError, match="block holds"):
            toeplitz_extract([1, 0, 1], params)


class TestExtractorParams:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError, match="seed"):
            ExtractorParams(8, 4, 0.5, BitSequence.from_bits(np.zeros(10, np.uint8)))

    def test_m_range_enforced(self):
        with pytest.raises(ValueError):
            ExtractorParams(4, 5, 0.5, BitSequence.from_bits(np.zeros(8, np.uint8)))

    def test_sized_uses_leftover_budget(self):
        params = ExtractorParams.sized(10**4, 0.99, 2.0**-50, seed_source=None)
        assert params.m == output_length(10**4, 0.99, 2.0**-50)
        assert len(params.seed) == params.n + params.m - 1

    def test_resolve_seed_too_short(self):
        with pytest.raises(SeedError):
            resolve_seed(b"\x00\x01", 100)

    @pytest.mark.parametrize("bad", [0.7, -1, 2, float("nan")])
    def test_resolve_seed_rejects_values_other_than_0_and_1(self, bad):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            resolve_seed([1, bad, 0, 1], 4)

    def test_resolve_seed_from_file(self, tmp_path, rng):
        payload = bytes(rng.integers(0, 256, 64, dtype=np.uint8).tolist())
        path = tmp_path / "seed.bin"
        path.write_bytes(payload)
        seed = resolve_seed(path, 500)
        assert len(seed) == 500
        assert np.array_equal(
            seed.to_bits(), np.unpackbits(np.frombuffer(payload, np.uint8))[:500]
        )


    def test_resolve_seed_reads_only_the_bits_it_needs(self, tmp_path, rng):
        # a 16 MiB seed file for a 2e6-bit seed: only its first 250,000 bytes
        # are read and unpacked
        import tracemalloc

        n_bits = 2 * 10**6
        payload = rng.integers(0, 256, 16 << 20, dtype=np.uint8)
        path = tmp_path / "seed.bin"
        payload.tofile(path)
        tracemalloc.start()
        try:
            seed = resolve_seed(path, n_bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seed.to_bytes() == payload[: n_bits // 8].tobytes()
        assert peak < 2 * n_bits, peak
        with pytest.raises(SeedError, match=f"seed holds {8 * 1000} bits, need {n_bits}"):
            path.write_bytes(payload[:1000].tobytes())
            resolve_seed(path, n_bits)


class TestExtractStream:
    def test_report_dict(self):
        report = ExtractionReport(h_min=0.5, n=100, m=40, ratio=0.4, bits_in=300, bits_out=120,
                                  blocks=3, seconds=2.0, mbps=6e-5, seed_sha256="ab")
        assert report.to_dict() == {
            "h_min": 0.5, "n": 100, "m": 40, "ratio": 0.4, "bits_out": 120, "seconds": 2.0,
            "mbps": 6e-5, "bits_in": 300, "blocks": 3, "seed_sha256": "ab",
        }

    def test_raw_shorter_than_block_rejected(self, rng):
        raw = BitSequence.from_bits(rng.integers(0, 2, 1000, dtype=np.uint8))
        with pytest.raises(ValueError, match="n_block"):
            extract_stream(raw, n_block=10**6)

    def test_seed_source_too_short(self, rng):
        raw = BitSequence.from_bits(rng.integers(0, 2, 40_000, dtype=np.uint8))
        with pytest.raises(SeedError):
            extract_stream(raw, n_block=20_000, seed_source=b"\x01\x02")

    def test_blocks_and_trailing_discard(self, rng):
        # n = 20001 starts the second and third blocks off a byte boundary, and
        # h = 1 gives m = 19901, so the outputs do not fill whole bytes either
        bits = rng.permutation(exact_bias_bits(70_000, 35_000))
        n = 20_001
        out, report, params = extract_stream(BitSequence.from_bits(bits), n_block=n)
        assert report.blocks == 3
        assert report.bits_in == 3 * n
        assert report.bits_out == 3 * params.m
        assert len(out) == report.bits_out
        assert report.ratio == params.m / n
        m = params.m
        assert m % 8
        seed, y = params.seed.to_bits(), out.to_bits()
        for k in range(3):
            block = bits[k * n:(k + 1) * n]
            for i in [0, m - 1, *rng.integers(0, m, 30)]:
                row = naive_toeplitz(seed[m - 1 - i: m - 1 - i + n], block, 1)
                assert y[k * m + i] == row[0], (k, i)

    def test_same_seed_reproduces(self, rng, monkeypatch):
        raw = BitSequence.from_bits(rng.integers(0, 2, 50_000, dtype=np.uint8))
        seed = bytes(rng.integers(0, 256, 8000, dtype=np.uint8).tolist())
        out1, rep1, _ = extract_stream(raw, n_block=20_000, seed_source=seed)
        out2, rep2, _ = extract_stream(raw, n_block=20_000, seed_source=seed)
        assert out1 == out2
        assert rep1.seed_sha256 == rep2.seed_sha256
        # the FFT reference, which runs without a compiler, gives the same bytes
        monkeypatch.setattr(_native, "library", lambda: None)
        out3, rep3, _ = extract_stream(raw, n_block=20_000, seed_source=seed)
        assert out3 == out1
        assert rep3 == rep1

    def test_report_rate_accounting(self, rng):
        raw = BitSequence.from_bits(rng.integers(0, 2, 40_000, dtype=np.uint8))
        out, report, _ = extract_stream(raw, n_block=20_000, acquisition_seconds=2.0)
        assert report.mbps == pytest.approx(len(out) / 2.0 / 1e6)
        assert report.seconds == 2.0

    def test_seed_hash_matches_params(self, rng):
        raw = BitSequence.from_bits(rng.integers(0, 2, 30_000, dtype=np.uint8))
        out, report, params = extract_stream(raw, n_block=20_000)
        assert report.seed_sha256 == hashlib.sha256(params.seed.to_bytes()).hexdigest()

    def test_balance_restoration(self, rng):
        # bias p1 = 0.6 in, monobit z-score of >= 1e6 output bits < 4
        n_in = 2 * 10**6
        bits = (rng.random(n_in) < 0.6).astype(np.uint8)
        out, report, _ = extract_stream(BitSequence.from_bits(bits), n_block=10**6)
        assert len(out) >= 10**6
        y = out.to_bits()
        z = (2.0 * y.sum() - y.size) / math.sqrt(y.size)
        assert abs(z) < 4.0
