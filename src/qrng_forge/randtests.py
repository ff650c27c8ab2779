"""Randomness validation: autocorrelation, an SP 800-22 core subset, and
the two-level P-value analysis (uniformity + pass proportion).

Implemented tests: frequency, block_frequency (M=128), runs, longest_run,
cumulative_sums_fwd/rev, serial (m=2, first P-value), approximate_entropy
(m=2). The other SP 800-22 tests (rank, spectral, templates, universal,
linear complexity, random excursions) are not implemented yet (see
ROADMAP.md, direction 8); run them on bits written by :func:`export_bits`.
For TestU01 runs on exported bits, interpret P-values inside
[1e-3, 1 - 1e-3] as a success.

Each test is split in two. Its statistics are integer counts of the
sequence (:class:`BitStats`): the ones, the transitions, the ones per
block, the longest run of ones per block, the two cumulative-sum maxima
and the cyclic m-bit pattern counts. Its P-value is a function of those
counts alone. The C kernel ``qf_bit_stats`` counts everything a sequence
needs in one pass over its packed bits, so :func:`run_battery` reads each
sequence once. The numpy statistics, test by test (:func:`_bit_stats_py`),
are the kernel's oracle and run where no compiler is available. Counts are
integers and the P-value expressions are shared, so both paths give the
same floats.

Every P-value here is erfc(z) or igamc(k/2, x) for a positive integer k,
as SP 800-22 Rev. 1a states them, and both have closed forms: erfc is
:func:`math.erfc`, and igamc at a half-integer shape is a finite sum
(:func:`_igamc`). So the battery needs nothing beyond numpy.

The battery's per-test "final P-value" is the goodness-of-fit uniformity
value P_T = igamc(9/2, chi2/2) over ten P-value bins; the pass
proportion must land inside phat +/- 3*sqrt(phat*(1-phat)/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _native
from .timetags import BitSequence, as_bit_array


class SequenceLengthError(ValueError):
    """Bit sequence shorter than the test's stated minimum."""


@dataclass(frozen=True)
class BatteryReport:
    """Two-level battery outcome over n_sequences equal slices."""

    n_sequences: int
    seq_len: int
    significance: float
    p_values: dict[str, list[float]]
    uniformity_p: dict[str, float]
    proportion: dict[str, float]
    proportion_range: tuple[float, float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_sequences": self.n_sequences,
            "seq_len": self.seq_len,
            "significance": self.significance,
            "proportion_range": list(self.proportion_range),
            "tests": {
                t: {
                    "final_p": self.uniformity_p[t],
                    "proportion": self.proportion[t],
                    "p_values": self.p_values[t],
                }
                for t in self.p_values
            },
            "passed": self.passed,
        }


def autocorr(bits, max_lag: int = 100) -> np.ndarray:
    """Normalized autocorrelation a_k for lags k = 1..max_lag.

    a_k = sum (x_i - xbar)(x_{i+k} - xbar) / sum (x_i - xbar)^2 over the
    overlapping range. Undefined (raises) for constant sequences.
    """
    x = as_bit_array(bits).astype(np.float64)
    n = x.size
    if n <= 10 * max_lag:
        raise ValueError(f"need more than {10 * max_lag} bits for max_lag={max_lag}")
    x -= x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("autocorrelation undefined for a constant sequence")
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        out[k - 1] = float(np.dot(x[:-k], x[k:])) / denom
    return out


# ---------------------------------------------------------------------------
# closed-form P-value functions

def _log_poisson(nu: float, x: float) -> float:
    """log(x^nu e^-x / Gamma(nu + 1)) for nu >= 0 and x > 0.

    From nu = 16 on, Stirling's series replaces log Gamma, and the terms
    of order nu that cancel are folded into nu*log1p((nu - x)/x) - (nu - x),
    whose rounding error is a few ulps of |nu - x|. At the peak term of
    :func:`_igamc`, where |nu - x| <= 1, the result is good to a few ulps
    of 1 even at nu = 10^4.
    """
    if nu < 16.0:
        return nu * math.log(x) - x - math.lgamma(nu + 1.0)
    d = nu - x
    r = 1.0 / (nu * nu)
    stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / nu
    return d - nu * math.log1p(d / x) - 0.5 * math.log(2.0 * math.pi * nu) - stirlerr


def _igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) at a = k/2, k a positive
    integer: the chi-square survival function with k degrees of freedom,
    at 2x. Any other shape raises ValueError.

    With h = a - floor(a) (0 or 1/2) and n = floor(a),
    Q(a, x) = [h = 1/2]*erfc(sqrt(x)) + sum_{j<n} t_j, where
    t_j = x^(j+h) e^-x / Gamma(j + h + 1), so t_j = t_{j-1} * x/(j + h).
    The sum starts from its largest term, at j + h just below x, scaled by
    :func:`_log_poisson`, and recurs outward both ways. Terms fall at least
    as fast as a Gaussian in the distance from the peak, so 12*sqrt(x) + 40
    terms each way reach below 2^-100 of the peak.
    """
    k = 2.0 * a
    if not (k >= 1.0 and k == int(k)):
        raise ValueError(f"shape {a} is not k/2 for a positive integer k")
    if not x > 0.0:
        return 1.0 if x == 0.0 else math.nan
    if math.isinf(x):
        return 0.0
    h, n = 0.5 * (int(k) & 1), int(k) // 2
    q = math.erfc(math.sqrt(x)) if h else 0.0
    if n == 0:
        return q
    p = min(n - 1, max(0, int(x - h)))
    w = int(12.0 * math.sqrt(x)) + 40
    up = np.cumprod(x / (np.arange(p + 1, min(n, p + w + 1)) + h))
    down = np.cumprod((np.arange(p, max(0, p - w), -1) + h) / x)
    return min(1.0, q + math.exp(_log_poisson(p + h, x)) * float(1.0 + up.sum() + down.sum()))


def _ndtr(z: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# SP 800-22 core subset: one pass counts a sequence, then each test's P-value

_LONGEST_RUN_TABLES = (
    # (min_n, M, categories, probabilities)
    (750_000, 10_000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)

#: The battery's block_frequency block size, and the pattern length it
#: counts: serial (m = 2) uses 2-bit patterns, approximate_entropy (m = 2)
#: 2- and 3-bit ones.
BLOCK_SIZE = 128
PATTERN_BITS = 3


@dataclass(frozen=True, eq=False)
class BitStats:
    """The integer statistics of one n-bit sequence that the P-values use.

    ``cusum_z`` holds the forward and reverse cumulative-sum maxima,
    ``block_ones`` the ones in each ``block_size``-bit block, ``run_counts``
    the blocks in each category of the sequence's ``_LONGEST_RUN_TABLES``
    row (none below 128 bits), and ``patterns`` the cyclic counts of the
    ``pattern_bits``-bit patterns, from which those of shorter patterns
    follow (:func:`_fold`).
    """

    n: int
    ones: int
    transitions: int
    cusum_z: tuple[int, int]
    block_size: int
    block_ones: np.ndarray
    run_counts: np.ndarray
    pattern_bits: int
    patterns: np.ndarray


def _longest_run_row(n: int):
    """The ``_LONGEST_RUN_TABLES`` row for n bits, or None below 128 bits."""
    return next((row for row in _LONGEST_RUN_TABLES if n >= row[0]), None)


def _packed(bits) -> tuple[np.ndarray, int]:
    """A BitSequence or 0/1 array-like as MSB-first bytes and its bit count."""
    seq = BitSequence.from_bits(bits)
    return seq.packed, seq.length


def _bit_stats(packed: np.ndarray, start: int, n: int, block_size: int = BLOCK_SIZE,
               pattern_bits: int = PATTERN_BITS) -> BitStats:
    """The statistics of bits ``start`` to ``start + n - 1`` of the MSB-first
    bytes ``packed``, counted in one pass by ``qf_bit_stats`` or, without a
    compiler, by its reference :func:`_bit_stats_py`.

    ValueError if block_size < 1, if pattern_bits is outside 0..32, or if
    ``packed`` is not a contiguous uint8 array holding the bits.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if not 0 <= pattern_bits <= 32:
        raise ValueError(f"pattern length must lie in 0..32, got {pattern_bits}")
    x_p = _native.address(packed, np.uint8, (start + n + 7) // 8)
    lib = _native.library()
    if lib is None:
        bits = np.unpackbits(packed[start >> 3:(start + n + 7) >> 3])
        return _bit_stats_py(bits[start & 7:(start & 7) + n], block_size, pattern_bits)
    row = _longest_run_row(n)
    run_block, run_lo, run_hi = (row[1], row[2][0], row[2][-1]) if row else (0, 0, -1)
    out = [np.empty(size, np.int64) for size in
           (4, n // block_size, run_hi - run_lo + 1, 1 << pattern_bits)]
    if lib.qf_bit_stats(x_p, start, n, block_size, run_block, run_lo, run_hi, pattern_bits,
                        *(_native.address(a, np.int64, a.size, writable=True) for a in out)) < 0:
        raise ValueError("qf_bit_stats refused its arguments")
    stats, block_ones, run_counts, patterns = out
    ones, transitions, z_fwd, z_rev = stats.tolist()
    return BitStats(n, ones, transitions, (z_fwd, z_rev), block_size, block_ones,
                    run_counts, pattern_bits, patterns)


def _sequence_stats(bits, block_size: int = BLOCK_SIZE,
                    pattern_bits: int = PATTERN_BITS) -> BitStats:
    packed, n = _packed(bits)
    return _bit_stats(packed, 0, n, block_size, pattern_bits)


# The numpy statistics: the reference of qf_bit_stats and its test oracle

def _bit_stats_py(x: np.ndarray, block_size: int = BLOCK_SIZE,
                  pattern_bits: int = PATTERN_BITS) -> BitStats:
    """:class:`BitStats` of the 0/1 uint8 array ``x``, test by test in numpy."""
    n = x.size
    n_blocks = n // block_size
    row = _longest_run_row(n)
    return BitStats(
        n=n,
        ones=int(x.sum()),
        transitions=int(np.count_nonzero(np.diff(x))),
        cusum_z=(_cusum_z_py(x), _cusum_z_py(x[::-1])),
        block_size=block_size,
        block_ones=x[: n_blocks * block_size].reshape(n_blocks, block_size).sum(
            axis=1, dtype=np.int64),
        run_counts=_longest_run_counts_py(x, row) if row else np.zeros(0, np.int64),
        pattern_bits=pattern_bits,
        patterns=_pattern_counts(x, pattern_bits),
    )


def _cusum_z_py(x: np.ndarray) -> int:
    """max |S_j| over the partial sums S_j of x as +1/-1 steps (0 for no bits)."""
    return int(np.abs(np.cumsum(x.astype(np.int64) * 2 - 1)).max(initial=0))


def _longest_run_counts_py(x: np.ndarray, row) -> np.ndarray:
    """Blocks of x per category of the ``_LONGEST_RUN_TABLES`` row ``row``,
    by the longest run of ones in each block, clipped to the categories."""
    _, m_len, cats, _ = row
    n_blocks = x.size // m_len
    blocks = x[: n_blocks * m_len].reshape(n_blocks, m_len)
    # longest run per block, vectorized over cumulative resets
    padded = np.zeros((n_blocks, m_len + 1), np.int64)
    padded[:, 1:] = blocks
    cums = np.maximum.accumulate(
        np.where(padded == 0, np.arange(m_len + 1)[None, :], -1), axis=1
    )
    longest = np.max(np.arange(m_len + 1)[None, :] - cums, axis=1)
    clipped = np.clip(longest, cats[0], cats[-1])
    return np.array([np.count_nonzero(clipped == c) for c in cats], np.int64)


def _pattern_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Cyclic counts of the 2^m m-bit patterns: pattern i is x[i],
    x[(i + 1) % n], ..., x[(i + m - 1) % n], read MSB first."""
    if m <= 0:
        return np.array([x.size], dtype=np.int64)
    w = np.resize(x, x.size + m - 1)  # x repeated cyclically
    val = np.zeros(x.size, dtype=np.int64)
    for u in range(m):
        val = (val << 1) | w[u: u + x.size]
    return np.bincount(val, minlength=1 << m)


# P-values from the counts

def _fold(patterns: np.ndarray, k: int) -> np.ndarray:
    """Cyclic counts of the k-bit patterns from those of longer ones: each
    k-bit pattern leads the longer patterns that start at the same bit."""
    return patterns.reshape(1 << max(k, 0), -1).sum(axis=1)


def _require(n: int, need: int, what: str) -> None:
    if n < need:
        raise SequenceLengthError(f"{what} needs more bits")


def _frequency_p(st: BitStats) -> float:
    if st.n == 0:
        raise SequenceLengthError("empty sequence")
    s = abs(2.0 * st.ones - st.n)
    return math.erfc(s / math.sqrt(st.n) / math.sqrt(2.0))


def _block_frequency_p(st: BitStats) -> float:
    n_blocks = st.block_ones.size
    if n_blocks < 1:
        raise SequenceLengthError(f"need at least one {st.block_size}-bit block")
    pi = st.block_ones / st.block_size
    chi2 = 4.0 * st.block_size * float(np.sum((pi - 0.5) ** 2))
    return _igamc(n_blocks / 2.0, chi2 / 2.0)


def _runs_p(st: BitStats) -> float:
    n = st.n
    if n < 2:
        raise SequenceLengthError("runs test needs at least 2 bits")
    pi = st.ones / n
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0  # frequency pre-test fails; not applicable
    v = 1 + st.transitions
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


def _longest_run_p(st: BitStats) -> float:
    row = _longest_run_row(st.n)
    if row is None:
        raise SequenceLengthError("longest_run needs at least 128 bits")
    _, m_len, cats, probs = row
    expected = st.n // m_len * np.asarray(probs)
    chi2 = float(np.sum((st.run_counts - expected) ** 2 / expected))
    return _igamc((len(cats) - 1) / 2.0, chi2 / 2.0)


#: _ndtr(x) is exactly 1.0 for x >= _NDTR_ONE, where erfc(-x / sqrt 2) is
#: within 2.3e-19 of 2, far inside half an ulp of 2, and exactly 0.0 for
#: x <= _NDTR_ZERO, where erfc(-x / sqrt 2) is below the least subnormal.
_NDTR_ONE = 9.0
_NDTR_ZERO = -40.0


def _ndtr_steps(n: int, z: int, offset: int, k_first: int, k_last: int) -> float:
    """fsum over k from ``k_first`` to ``k_last`` of
    _ndtr((4k + offset + 1) z / sqrt n) - _ndtr((4k + offset - 1) z / sqrt n).

    Only the k whose two arguments are not both at or above _NDTR_ONE, nor
    both at or below _NDTR_ZERO, are summed, and a margin of one k keeps
    rounding out of the bounds: the terms left out are exactly 0, and fsum
    is exact, so the sum is the full one to the last bit.
    """
    sqrt_n = math.sqrt(n)
    c = z / sqrt_n
    k_first = max(k_first, math.floor((_NDTR_ZERO / c - offset - 1) / 4))
    k_last = min(k_last, math.ceil((_NDTR_ONE / c - offset + 1) / 4))
    return math.fsum(
        _ndtr((4 * k + offset + 1) * z / sqrt_n) - _ndtr((4 * k + offset - 1) * z / sqrt_n)
        for k in range(k_first, k_last + 1)
    )


def _cusum_p(n: int, z: int) -> float:
    """The cumulative-sums P-value of maximum excursion ``z`` over ``n`` bits."""
    if z == 0:
        return 1.0
    term1 = _ndtr_steps(n, z, 0, (-n // z + 1) // 4, (n // z - 1) // 4)
    term2 = _ndtr_steps(n, z, 2, (-n // z - 3) // 4, (n // z - 1) // 4)
    return float(min(max(1.0 - term1 + term2, 0.0), 1.0))


def _cumulative_sums_p(st: BitStats, reverse: bool = False) -> float:
    if st.n < 2:
        raise SequenceLengthError("cumulative sums needs at least 2 bits")
    return _cusum_p(st.n, st.cusum_z[1 if reverse else 0])


def _psi_sq(st: BitStats, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = _fold(st.patterns, m)
    return float((1 << m) / st.n * np.sum(counts.astype(np.float64) ** 2) - st.n)


def _serial_p(st: BitStats, m: int = 2) -> tuple[float, float]:
    _require(st.n, 1 << (m + 2), f"serial test with m={m}")
    psi_m = _psi_sq(st, m)
    psi_m1 = _psi_sq(st, m - 1)
    psi_m2 = _psi_sq(st, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _igamc(2 ** (m - 2), d1 / 2.0)
    p2 = _igamc(2 ** (m - 3), d2 / 2.0)
    return p1, p2


def _approximate_entropy_p(st: BitStats, m: int = 2) -> float:
    n = st.n
    _require(n, 1 << (m + 3), f"approximate entropy with m={m}")

    def phi(mm: int) -> float:
        counts = _fold(st.patterns, mm)
        probs = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(probs * np.log(probs)))

    ap_en = phi(m) - phi(m + 1)
    chi2 = max(2.0 * n * (np.log(2.0) - ap_en), 0.0)  # analytic >= 0; guard float dust
    return _igamc(2 ** (m - 1), chi2 / 2.0)


# The tests on bits

def frequency_test(bits) -> float:
    return _frequency_p(_sequence_stats(bits))


def block_frequency_test(bits, block_size: int = 128) -> float:
    return _block_frequency_p(_sequence_stats(bits, block_size=block_size))


def runs_test(bits) -> float:
    return _runs_p(_sequence_stats(bits))


def longest_run_test(bits) -> float:
    return _longest_run_p(_sequence_stats(bits))


def cumulative_sums_test(bits, reverse: bool = False) -> float:
    return _cumulative_sums_p(_sequence_stats(bits), reverse)


def serial_test(bits, m: int = 2) -> tuple[float, float]:
    """NIST serial test; returns both P-values (del-psi^2, del^2-psi^2).

    Needs m >= 2, since the second P-value is igamc(2^(m-3), .) and a
    chi-square shape is k/2; ValueError otherwise.
    """
    if m < 2:
        raise ValueError(f"serial test needs m >= 2, got m={m}")
    packed, n = _packed(bits)
    _require(n, 1 << (m + 2), f"serial test with m={m}")  # before a 2^m-count table
    return _serial_p(_bit_stats(packed, 0, n, pattern_bits=m), m)


def approximate_entropy_test(bits, m: int = 2) -> float:
    """Approximate entropy with m-bit blocks; ValueError for m < 0."""
    if m < 0:
        raise ValueError(f"approximate entropy needs m >= 0, got m={m}")
    packed, n = _packed(bits)
    _require(n, 1 << (m + 3), f"approximate entropy with m={m}")  # before a 2^(m+1)-count table
    return _approximate_entropy_p(_bit_stats(packed, 0, n, pattern_bits=m + 1), m)


#: test id -> (P-value from a sequence's BitStats at BLOCK_SIZE and
#: PATTERN_BITS, minimum bits)
TEST_IDS: dict[str, tuple] = {
    "frequency": (_frequency_p, 100),
    "block_frequency": (_block_frequency_p, 128),
    "runs": (_runs_p, 100),
    "longest_run": (_longest_run_p, 128),
    "cumulative_sums_fwd": (_cumulative_sums_p, 100),
    "cumulative_sums_rev": (lambda st: _cumulative_sums_p(st, reverse=True), 100),
    "serial": (lambda st: _serial_p(st)[0], 100),
    "approximate_entropy": (_approximate_entropy_p, 100),
}


def pvalue_uniformity(pvalues: Sequence[float], min_sequences: int = 55) -> float:
    """Goodness-of-fit uniformity P_T over ten equal P-value bins.

    chi^2 against the uniform expectation, P_T = igamc(9/2, chi^2/2);
    P_T >= 1e-4 counts as uniform. NIST recommends at least 55 sequences;
    pass a smaller ``min_sequences`` for reduced desk-scale runs.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.size < min_sequences:
        raise ValueError(f"need >= {min_sequences} P-values, got {p.size}")
    bins = np.minimum((p * 10).astype(int), 9)
    observed = np.bincount(bins, minlength=10)
    expected = p.size / 10.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return _igamc(4.5, chi2 / 2.0)


def proportion_range(n_sequences: int, significance: float) -> tuple[float, float]:
    """Acceptable pass-proportion interval phat +/- 3*sqrt(phat(1-phat)/n)."""
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")
    p_hat = 1.0 - significance
    half = 3.0 * np.sqrt(p_hat * (1.0 - p_hat) / n_sequences)
    return (p_hat - half, p_hat + half)


def run_battery(
    bits,
    n_sequences: int,
    seq_len: int,
    significance: float = 0.01,
) -> BatteryReport:
    """Split a bit stream into sequences and run the full core subset, with
    one count of each sequence (:func:`_bit_stats`) for all its tests.

    Verdict: every test's pass proportion inside the proportion range and
    every test's uniformity P_T >= 1e-4.
    """
    packed, size = _packed(bits)
    needed = n_sequences * seq_len
    if size < needed:
        raise SequenceLengthError(
            f"battery needs {needed} bits ({n_sequences} x {seq_len}), got {size}"
        )
    for t, (_, min_len) in TEST_IDS.items():
        if seq_len < min_len:
            raise SequenceLengthError(f"{t} needs >= {min_len} bits, got {seq_len}")
    p_values: dict[str, list[float]] = {t: [] for t in TEST_IDS}
    for k in range(n_sequences):
        stats = _bit_stats(packed, k * seq_len, seq_len)
        for t in TEST_IDS:
            p_values[t].append(TEST_IDS[t][0](stats))
    lo, hi = proportion_range(n_sequences, significance)
    uniformity = {t: pvalue_uniformity(p_values[t], min_sequences=1) for t in TEST_IDS}
    proportion = {t: sum(p >= significance for p in p_values[t]) / n_sequences for t in TEST_IDS}
    ok = all(lo <= proportion[t] <= hi and uniformity[t] >= 1e-4 for t in TEST_IDS)
    return BatteryReport(
        n_sequences=n_sequences,
        seq_len=seq_len,
        significance=significance,
        p_values=p_values,
        uniformity_p=uniformity,
        proportion=proportion,
        proportion_range=(lo, hi),
        passed=ok,
    )


def export_bits(bits, fmt: str = "raw_packed") -> bytes:
    """Bit-exact export for external harnesses (full NIST, TestU01).

    ``raw_packed`` matches the packed bit-file format (MSB-first);
    ``ascii01`` is one '0'/'1' character per bit, no separators.
    """
    if fmt == "raw_packed":
        return BitSequence.from_bits(bits).to_bytes()
    if fmt == "ascii01":
        arr = as_bit_array(bits)
        return (arr + ord("0")).astype(np.uint8).tobytes()
    raise ValueError(f"unknown export format {fmt!r}")
