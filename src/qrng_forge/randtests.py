"""Randomness validation: autocorrelation, an SP 800-22 core subset, and
the two-level P-value analysis (uniformity + pass proportion).

Implemented tests: frequency, block_frequency (M=128), runs, longest_run,
cumulative_sums_fwd/rev, serial (m=2, first P-value), approximate_entropy
(m=2). The other SP 800-22 tests (rank, spectral, templates, universal,
linear complexity, random excursions) are not implemented yet (see
ROADMAP.md, direction 8); run them on bits written by :func:`export_bits`.
For TestU01 runs on exported bits, interpret P-values inside
[1e-3, 1 - 1e-3] as a success.

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

from .timetags import BitSequence, as_bit_array


class SequenceLengthError(ValueError):
    """Bit sequence shorter than the test's stated minimum."""


@dataclass(frozen=True)
class TestResult:
    test_id: str
    p_value: float
    passed: bool


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
# SP 800-22 core subset


def frequency_test(bits) -> float:
    x = as_bit_array(bits)
    n = x.size
    if n == 0:
        raise SequenceLengthError("empty sequence")
    s = abs(2.0 * int(x.sum()) - n)
    return math.erfc(s / math.sqrt(n) / math.sqrt(2.0))


def block_frequency_test(bits, block_size: int = 128) -> float:
    x = as_bit_array(bits)
    n = x.size
    n_blocks = n // block_size
    if n_blocks < 1:
        raise SequenceLengthError(f"need at least one {block_size}-bit block")
    trimmed = x[: n_blocks * block_size].reshape(n_blocks, block_size)
    pi = trimmed.mean(axis=1)
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    return _igamc(n_blocks / 2.0, chi2 / 2.0)


def runs_test(bits) -> float:
    x = as_bit_array(bits)
    n = x.size
    if n < 2:
        raise SequenceLengthError("runs test needs at least 2 bits")
    pi = float(x.mean())
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0  # frequency pre-test fails; not applicable
    v = 1 + int(np.count_nonzero(np.diff(x)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


_LONGEST_RUN_TABLES = (
    # (min_n, M, categories, probabilities)
    (750_000, 10_000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def longest_run_test(bits) -> float:
    x = as_bit_array(bits)
    n = x.size
    for min_n, m_len, cats, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    else:
        raise SequenceLengthError("longest_run needs at least 128 bits")
    n_blocks = n // m_len
    blocks = x[: n_blocks * m_len].reshape(n_blocks, m_len)
    # longest run per block, vectorized over cumulative resets
    padded = np.zeros((n_blocks, m_len + 1), np.int64)
    padded[:, 1:] = blocks
    cums = np.maximum.accumulate(
        np.where(padded == 0, np.arange(m_len + 1)[None, :], -1), axis=1
    )
    longest = np.max(np.arange(m_len + 1)[None, :] - cums, axis=1)
    lo, hi = cats[0], cats[-1]
    nu = np.zeros(len(cats), np.int64)
    clipped = np.clip(longest, lo, hi)
    for i, c in enumerate(cats):
        nu[i] = int(np.count_nonzero(clipped == c))
    probs_arr = np.asarray(probs)
    expected = n_blocks * probs_arr
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return _igamc((len(cats) - 1) / 2.0, chi2 / 2.0)


def cumulative_sums_test(bits, reverse: bool = False) -> float:
    x = as_bit_array(bits).astype(np.int64) * 2 - 1
    if reverse:
        x = x[::-1]
    n = x.size
    if n < 2:
        raise SequenceLengthError("cumulative sums needs at least 2 bits")
    z = int(np.abs(np.cumsum(x)).max())
    if z == 0:
        return 1.0
    sqrt_n = math.sqrt(n)
    term1 = math.fsum(
        _ndtr((4 * k + 1) * z / sqrt_n) - _ndtr((4 * k - 1) * z / sqrt_n)
        for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1)
    )
    term2 = math.fsum(
        _ndtr((4 * k + 3) * z / sqrt_n) - _ndtr((4 * k + 1) * z / sqrt_n)
        for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1)
    )
    return float(min(max(1.0 - term1 + term2, 0.0), 1.0))


def _pattern_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-bit patterns with wraparound."""
    if m <= 0:
        return np.array([x.size], dtype=np.int64)
    w = np.concatenate([x, x[: m - 1]])
    val = np.zeros(x.size, dtype=np.int64)
    for u in range(m):
        val = (val << 1) | w[u: u + x.size]
    return np.bincount(val, minlength=1 << m)


def _psi_sq(x: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = _pattern_counts(x, m)
    n = x.size
    return float((1 << m) / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial_test(bits, m: int = 2) -> tuple[float, float]:
    """NIST serial test; returns both P-values (del-psi^2, del^2-psi^2).

    Needs m >= 2, since the second P-value is igamc(2^(m-3), .) and a
    chi-square shape is k/2; ValueError otherwise.
    """
    if m < 2:
        raise ValueError(f"serial test needs m >= 2, got m={m}")
    x = as_bit_array(bits)
    if x.size < 1 << (m + 2):
        raise SequenceLengthError(f"serial test with m={m} needs more bits")
    psi_m = _psi_sq(x, m)
    psi_m1 = _psi_sq(x, m - 1)
    psi_m2 = _psi_sq(x, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _igamc(2 ** (m - 2), d1 / 2.0)
    p2 = _igamc(2 ** (m - 3), d2 / 2.0)
    return p1, p2


def approximate_entropy_test(bits, m: int = 2) -> float:
    x = as_bit_array(bits)
    n = x.size
    if n < 1 << (m + 3):
        raise SequenceLengthError(f"approximate entropy with m={m} needs more bits")

    def phi(mm: int) -> float:
        counts = _pattern_counts(x, mm)
        probs = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(probs * np.log(probs)))

    ap_en = phi(m) - phi(m + 1)
    chi2 = max(2.0 * n * (np.log(2.0) - ap_en), 0.0)  # analytic >= 0; guard float dust
    return _igamc(2 ** (m - 1), chi2 / 2.0)


#: test id -> (function returning a P-value, minimum bits)
TEST_IDS: dict[str, tuple] = {
    "frequency": (frequency_test, 100),
    "block_frequency": (block_frequency_test, 128),
    "runs": (runs_test, 100),
    "longest_run": (longest_run_test, 128),
    "cumulative_sums_fwd": (lambda b: cumulative_sums_test(b, reverse=False), 100),
    "cumulative_sums_rev": (lambda b: cumulative_sums_test(b, reverse=True), 100),
    "serial": (lambda b: serial_test(b)[0], 100),
    "approximate_entropy": (approximate_entropy_test, 100),
}


def run_test(
    test_id: str, bits, significance: float = 0.01, strict: bool = True
) -> TestResult:
    """Run one named test; ``strict`` enforces the per-test minimum length."""
    if test_id not in TEST_IDS:
        raise KeyError(f"unknown test id {test_id!r}; choose from {sorted(TEST_IDS)}")
    func, min_len = TEST_IDS[test_id]
    x = as_bit_array(bits)
    if strict and x.size < min_len:
        raise SequenceLengthError(
            f"{test_id} needs >= {min_len} bits, got {x.size}"
        )
    p = func(x)
    return TestResult(test_id, p, p >= significance)


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
    test_ids: Sequence[str] | None = None,
) -> BatteryReport:
    """Split a bit stream into sequences and run the full core subset.

    Verdict: every test's pass proportion inside the proportion range and
    every test's uniformity P_T >= 1e-4.
    """
    x = as_bit_array(bits)
    needed = n_sequences * seq_len
    if x.size < needed:
        raise SequenceLengthError(
            f"battery needs {needed} bits ({n_sequences} x {seq_len}), got {x.size}"
        )
    ids = list(test_ids) if test_ids is not None else list(TEST_IDS)
    sequences = [x[k * seq_len:(k + 1) * seq_len] for k in range(n_sequences)]
    p_values = {
        t: [run_test(t, seq, significance).p_value for seq in sequences] for t in ids
    }
    lo, hi = proportion_range(n_sequences, significance)
    uniformity = {
        t: pvalue_uniformity(p_values[t], min_sequences=1) for t in ids
    }
    proportion = {
        t: sum(p >= significance for p in p_values[t]) / n_sequences for t in ids
    }
    ok = all(lo <= proportion[t] <= hi for t in ids) and all(
        uniformity[t] >= 1e-4 for t in ids
    )
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
        if isinstance(bits, BitSequence):
            return bits.to_bytes()
        return np.packbits(as_bit_array(bits)).tobytes()
    if fmt == "ascii01":
        arr = as_bit_array(bits)
        return (arr + ord("0")).astype(np.uint8).tobytes()
    raise ValueError(f"unknown export format {fmt!r}")
