import math

import numpy as np
import pytest

from qrng_forge import (
    BitSequence,
    autocorr,
    export_bits,
    proportion_range,
    pvalue_uniformity,
    run_battery,
)
from qrng_forge.randtests import (
    TEST_IDS,
    SequenceLengthError,
    _cusum_p,
    _igamc,
    _ndtr,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    frequency_test,
    longest_run_test,
    runs_test,
    serial_test,
)


def prng_bits(n, seed=0):
    """The same counter-based generator family the simulator uses."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    return gen.integers(0, 2, n, dtype=np.uint8)


class TestAutocorr:
    def test_alternating_anticorrelated_at_lag_one(self):
        n = 2000
        bits = np.tile([0, 1], n // 2).astype(np.uint8)
        ac = autocorr(bits, max_lag=10)
        assert ac[0] == pytest.approx(-(n - 1) / n, abs=1e-12)

    def test_periodic_copy_peaks_at_period(self):
        period = 500
        chunk = prng_bits(period, seed=4)
        bits = np.tile(chunk, 12)
        ac = autocorr(bits, max_lag=period)
        assert ac[period - 1] > 0.9
        assert np.abs(ac[: period - 1]).max() < 0.5

    def test_constant_sequence_undefined(self):
        with pytest.raises(ValueError, match="constant"):
            autocorr(np.ones(5000, np.uint8), max_lag=100)

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            autocorr(prng_bits(900), max_lag=100)

    def test_null_distribution_tail_fraction(self):
        # for iid fair bits, |a_k| > 2/sqrt(N) should hit a few percent
        bits = prng_bits(10**6, seed=11)
        ac = autocorr(bits, max_lag=100)
        frac = float(np.mean(np.abs(ac) > 2.0 / np.sqrt(bits.size)))
        assert 0.01 <= frac <= 0.15


class TestIndividualTests:
    def test_frequency_worked_example(self):
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], np.uint8)
        assert frequency_test(bits) == pytest.approx(0.5271, abs=1e-4)

    def test_runs_degenerate_all_ones(self):
        assert runs_test(np.ones(200, np.uint8)) == 0.0

    def test_block_frequency_balanced_blocks(self):
        bits = np.tile([0, 1], 64 * 50)  # every 128-block exactly half ones
        assert block_frequency_test(bits) == pytest.approx(1.0)

    def test_longest_run_matches_scalar_oracle(self, rng):
        def longest(block):
            best = run = 0
            for b in block:
                run = run + 1 if b else 0
                best = max(best, run)
            return best

        bits = rng.integers(0, 2, 5000, dtype=np.uint8)  # n < 6272: M=8 tier
        blocks = bits[: 5000 // 8 * 8].reshape(-1, 8)
        lengths = [longest(b.tolist()) for b in blocks]
        # the category counts drive the statistic; recompute them both ways
        from scipy.special import gammaincc

        nu = np.zeros(4, np.int64)
        for L in lengths:
            nu[min(max(L, 1), 4) - 1] += 1
        probs = np.array([0.2148, 0.3672, 0.2305, 0.1875])
        expected = len(lengths) * probs
        chi2 = float(np.sum((nu - expected) ** 2 / expected))
        assert longest_run_test(bits) == pytest.approx(
            float(gammaincc(1.5, chi2 / 2.0)), abs=1e-12
        )

    def test_cumulative_sums_reverse_differs(self):
        bits = np.concatenate([np.ones(600, np.uint8), prng_bits(400, 3)])
        assert cumulative_sums_test(bits) != cumulative_sums_test(bits, reverse=True)

    def test_serial_two_pvalues(self):
        p1, p2 = serial_test(prng_bits(10**5, 5))
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0

    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_serial_needs_m_at_least_two(self, m):
        # at m = 1 the second P-value would need igamc(1/4, .), not a chi-square shape
        with pytest.raises(ValueError, match="m >= 2"):
            serial_test(prng_bits(1000, 5), m=m)

    def test_serial_pattern_counter_against_slow_oracle(self, rng):
        bits = rng.integers(0, 2, 500, dtype=np.uint8)
        from qrng_forge.randtests import _pattern_counts

        m = 3
        wrapped = np.concatenate([bits, bits[: m - 1]])
        slow = np.zeros(2**m, np.int64)
        for i in range(bits.size):
            word = 0
            for u in range(m):
                word = (word << 1) | int(wrapped[i + u])
            slow[word] += 1
        assert np.array_equal(_pattern_counts(bits, m), slow)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 500])
    def test_pattern_counts_are_cyclic_and_fold(self, rng, n):
        # below m - 1 bits the patterns wrap around the sequence more than once;
        # shorter patterns' counts are sums of longer ones', exactly
        from qrng_forge.randtests import _fold, _pattern_counts

        m = 6
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        slow = np.zeros(2**m, np.int64)
        for i in range(n):
            slow[int("".join(str(bits[(i + u) % n]) for u in range(m)), 2)] += 1
        counts = _pattern_counts(bits, m)
        assert np.array_equal(counts, slow)
        for k in range(m + 1):
            assert np.array_equal(_fold(counts, k), _pattern_counts(bits, k)), k

    def test_approximate_entropy_in_range(self):
        p = approximate_entropy_test(prng_bits(10**5, 6))
        assert 0.0 <= p <= 1.0

    def test_self_consistency_all_tests_uniform(self):
        # 1000 sequences from the deterministic simulator PRNG family:
        # each test's own P-values must pass the uniformity check
        n_seq, seq_len = 1000, 16384
        report = run_battery(prng_bits(n_seq * seq_len, seed=99), n_seq, seq_len)
        assert list(report.p_values) == list(TEST_IDS)
        for test_id, ps in report.p_values.items():
            assert pvalue_uniformity(ps) >= 1e-4, test_id


def close_to(got, want, abs_tol=1e-12, rel_tol=1e-10):
    """Absolute error <= abs_tol, and relative error <= rel_tol wherever the
    reference value is at least 1e-300."""
    return abs(got - want) <= abs_tol and (want < 1e-300 or abs(got - want) <= rel_tol * want)


class TestClosedForms:
    """The closed forms the battery's P-values use, against scipy.special."""

    @pytest.mark.parametrize("k", list(range(1, 21)) + [781, 1562, 7812])
    def test_igamc_equals_scipy(self, k):
        from scipy.special import gammaincc

        a = k / 2
        xs = np.concatenate([
            np.linspace(0.0, 3 * a + 30, 301),
            a + 8 * np.sqrt(a + 1) * np.linspace(-1, 1, 101),
            [1e-300, 1e-12, 1e-3, 0.5, max(a - 0.5, 0.0), a, a + 0.5],
        ])
        for x in xs[xs >= 0]:
            got, want = _igamc(a, float(x)), float(gammaincc(a, x))
            assert close_to(got, want), (k, x, got, want)

    def test_igamc_edges(self):
        assert _igamc(3.5, 0.0) == 1.0
        assert _igamc(3.5, float("inf")) == 0.0
        assert np.isnan(_igamc(3.5, -1e-12))  # as scipy: a negative statistic has no P-value
        assert _igamc(2, 10**6) == 0.0  # the peak term underflows

    @pytest.mark.parametrize("a", [0.25, 0.0, -0.5, 1.75, 1 / 3])
    def test_igamc_refuses_shapes_not_k_over_2(self, a):
        with pytest.raises(ValueError, match="k/2"):
            _igamc(a, 1.0)

    def test_erfc_and_ndtr_equal_scipy(self):
        from scipy.special import erfc, ndtr

        zs = np.concatenate([np.linspace(-40, 40, 2001), [-1e-300, 0.0, 1e-300]])
        for z in zs:
            assert close_to(math.erfc(z), float(erfc(z))), z
            assert close_to(_ndtr(z), float(ndtr(z))), z


def cusum_p_full(n, z):
    """The cumulative-sums P-value summed over every k of SP 800-22 (2.13.4)."""
    if z == 0:
        return 1.0
    sqrt_n = math.sqrt(n)
    term1 = math.fsum(_ndtr((4 * k + 1) * z / sqrt_n) - _ndtr((4 * k - 1) * z / sqrt_n)
                      for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1))
    term2 = math.fsum(_ndtr((4 * k + 3) * z / sqrt_n) - _ndtr((4 * k + 1) * z / sqrt_n)
                      for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1))
    return float(min(max(1.0 - term1 + term2, 0.0), 1.0))


class TestCusumTerms:
    """``_cusum_p`` sums only the terms whose two _ndtr values are not both
    exactly 1.0 or both exactly 0.0; the result is the full sum's to the bit."""

    def test_ndtr_flat_beyond_the_bounds(self):
        from qrng_forge.randtests import _NDTR_ONE, _NDTR_ZERO

        for x in np.linspace(0, 1000, 10_001):
            assert _ndtr(_NDTR_ONE + x) == 1.0 and _ndtr(_NDTR_ZERO - x) == 0.0, x

    @pytest.mark.parametrize("n, zs", [
        (100, range(1, 101)),
        (10**5, range(1, 10**5 + 1, 3)),
        # the full sums of small z are long (n / 2z terms); every z is checked
        # up to 40, and z from there on at a stride that hits odd and even z
        (10**6, [*range(1, 41), *range(41, 10**6, 1999), 10**6 - 1, 10**6]),
    ])
    def test_equals_full_sum(self, n, zs):
        for z in zs:
            assert _cusum_p(n, z) == cusum_p_full(n, z), (n, z)


class TestUniformityAndProportion:
    def test_exactly_uniform_pvalues(self):
        ps = np.repeat((np.arange(10) + 0.5) / 10.0, 8)
        assert pvalue_uniformity(ps) == pytest.approx(1.0)

    def test_all_in_one_bin(self):
        ps = np.full(80, 0.05)
        # chi2 = (72^2 + 9*8^2) / 8 = 720
        assert pvalue_uniformity(ps) < 1e-100

    def test_minimum_sequences(self):
        with pytest.raises(ValueError, match="55"):
            pvalue_uniformity(np.linspace(0, 1, 54))
        assert pvalue_uniformity(np.linspace(0.01, 0.99, 20), min_sequences=1) > 0

    def test_proportion_range_paper_values(self):
        lo, hi = proportion_range(80, 0.01)
        assert (round(lo, 4), round(hi, 4)) == (0.9566, 1.0234)
        lo, hi = proportion_range(46, 0.01)
        assert (round(lo, 4), round(hi, 4)) == (0.9460, 1.0340)

    def test_limit_large_n(self):
        lo, hi = proportion_range(10**12, 0.01)
        assert lo == pytest.approx(0.99, abs=1e-5)
        assert hi == pytest.approx(0.99, abs=1e-5)

    def test_monotone_in_n(self):
        widths = [
            proportion_range(n, 0.01)[1] - proportion_range(n, 0.01)[0]
            for n in (20, 46, 80, 200)
        ]
        assert widths == sorted(widths, reverse=True)


class TestBattery:
    def test_insufficient_bits(self):
        with pytest.raises(SequenceLengthError):
            run_battery(prng_bits(1000), n_sequences=10, seq_len=1000)
        # enough bits in all, but sequences shorter than a test's minimum
        with pytest.raises(SequenceLengthError, match="block_frequency needs >= 128 bits, got 100"):
            run_battery(prng_bits(1000), n_sequences=10, seq_len=100)

    def test_good_bits_pass(self):
        report = run_battery(prng_bits(20 * 10**5, seed=21), 20, 10**5)
        assert report.passed
        lo, hi = report.proportion_range
        for test_id, prop in report.proportion.items():
            assert lo <= prop <= hi, test_id
        for test_id, p in report.uniformity_p.items():
            assert p >= 1e-4, test_id

    def test_hard_biased_source_fails_frequency(self, rng):
        bits = (rng.random(20 * 20_000) < 0.7).astype(np.uint8)
        report = run_battery(bits, 20, 20_000)
        lo, _ = report.proportion_range
        assert report.proportion["frequency"] < lo
        assert not report.passed

    def test_desk_scale_range_adjusts(self):
        report = run_battery(prng_bits(20 * 10**5, seed=22), 20, 10**5)
        assert report.proportion_range == pytest.approx(proportion_range(20, 0.01))

    def test_report_serializes(self):
        report = run_battery(prng_bits(8 * 20_000, seed=24), 8, 20_000)
        payload = report.to_dict()
        assert set(payload["tests"]) == set(TEST_IDS)
        for row in payload["tests"].values():
            assert "final_p" in row and "proportion" in row


class TestExport:
    def test_ascii01(self):
        assert export_bits(np.array([1, 0, 1], np.uint8), "ascii01") == b"101"

    def test_packed_matches_bit_file_format(self, rng):
        bits = rng.integers(0, 2, 1001, dtype=np.uint8)
        seq = BitSequence.from_bits(bits)
        assert export_bits(seq, "raw_packed") == seq.to_bytes()
        assert export_bits(bits, "raw_packed") == seq.to_bytes()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_bits(np.array([1], np.uint8), "hex")

    def test_large_export_round_trips(self):
        bits = prng_bits(8 * 10**7, seed=31)
        payload = export_bits(bits, "raw_packed")
        back = BitSequence.from_bytes(payload, bits.size).to_bits()
        assert np.array_equal(back, bits)
