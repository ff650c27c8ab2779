"""Quantumness metrics: fringe visibility, CHSH S, cross-correlation g2.

Certification runs on the (C1, C2) analyzer coincidences concurrently
with bit production. The stream is cut into blocks of a fixed event
count; each block gets an S value with a counting-noise standard error,
a g2 value (from its C1 and C2 singles, counted on the tag stream), and a
verdict:

    CERTIFIED_BELL   S - 3*sigma_S > 2
    CERTIFIED_G2     otherwise, g2 > 2
    UNCERTIFIED      neither metric clears its bound

A block can only be Bell-certified when the analyzer schedule is the
canonical 16-combination CHSH cycle (see AnalyzerSchedule.chsh) and the
block spans at least one full cycle; otherwise the settings bookkeeping
is ill-defined, the metrics are reported as NaN, and the block is
UNCERTIFIED. The run's verdict is the weakest block's (:func:`run_verdict`),
and it gates every raw bit at once: the pipeline refuses to extract from an
UNCERTIFIED run unless forced, and then extracts every bit.
:func:`verdicts_for_times` gives the verdict of the block covering each
timestamp, but no stage gates bits block by block yet.

:func:`certify_run` bins each block's coincidences by analyzer setting
once, and also returns the run's counts per setting as the sum of the
blocks'. The run-level S and fringe fit come from that sum, so no pass
bins the whole record again; :func:`chsh_measurement` and
:func:`fringe_counts`, which bin a whole record at once, are their
references.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coincidence import CoincidenceConfig, CoincidenceList
from .source import AnalyzerSchedule
from .timetags import Channel, TagStream

SQRT8 = 2.0 * math.sqrt(2.0)
#: The fewest coincidences a certification block may hold.
MIN_BLOCK_EVENTS = 4000
#: Channel codes compared at once when g2's singles are counted.
_COUNT_CHUNK = 1 << 18


class InsufficientDataError(ValueError):
    """Zero counts where a ratio or correlation needs data."""


class FitError(RuntimeError):
    """Degenerate visibility fit (non-positive fringe offset)."""


class Verdict(str, enum.Enum):
    CERTIFIED_BELL = "CERTIFIED_BELL"
    CERTIFIED_G2 = "CERTIFIED_G2"
    UNCERTIFIED = "UNCERTIFIED"


@dataclass(frozen=True)
class CorrelationCounts:
    """Coincidence counts at one CHSH setting pair and its complements.

    ``tt`` is (t1, t2), ``tp`` is (t1, t2+90), ``pt`` is (t1+90, t2),
    ``pp`` is (t1+90, t2+90).
    """

    n_tt: int
    n_tp: int
    n_pt: int
    n_pp: int

    @property
    def total(self) -> int:
        return self.n_tt + self.n_tp + self.n_pt + self.n_pp


def correlation_E(counts: CorrelationCounts) -> float:
    """Polarization correlation E = (tt + pp - tp - pt) / total, in [-1, 1]."""
    total = counts.total
    if total <= 0:
        raise InsufficientDataError("no coincidences at this setting pair")
    return (counts.n_tt + counts.n_pp - counts.n_tp - counts.n_pt) / total


def correlation_E_stderr(counts: CorrelationCounts) -> float:
    """Multinomial counting-noise standard error of E: sqrt((1-E^2)/N)."""
    total = counts.total
    if total <= 0:
        raise InsufficientDataError("no coincidences at this setting pair")
    e = correlation_E(counts)
    return math.sqrt(max(1.0 - e * e, 0.0) / total)


def chsh_s(e_ab: float, e_ab_prime: float, e_a_prime_b: float, e_a_prime_b_prime: float) -> float:
    """CHSH combination |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    return abs(e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime)


def g2_cross(
    n_a: int, n_b: int, n_coinc: int, duration: int, cfg: CoincidenceConfig
) -> float:
    """Normalized cross-correlation at zero delay.

    g2 = n_coinc * T / (n_a * n_b * 2*tau); values above the classical
    bound of 2 certify nonclassical pair correlation. ``duration`` and
    the window share units (ps).
    """
    if n_a <= 0 or n_b <= 0:
        raise InsufficientDataError("zero singles on a g2 input channel")
    return n_coinc * duration / (n_a * n_b * 2.0 * cfg.window_tau)


@dataclass(frozen=True)
class VisibilityResult:
    """Fringe fit N(theta) = offset + amplitude*cos(2(theta - phase)).

    ``v`` is the fitted visibility amplitude/offset (authoritative);
    ``v_raw`` is the plain (max-min)/(max+min) of the samples.
    """

    v: float
    v_raw: float
    offset: float
    amplitude: float
    phase_deg: float


def visibility(counts_vs_angle: Sequence[tuple[float, float]]) -> VisibilityResult:
    """Least-squares fringe visibility from (angle_deg, count) samples.

    Needs at least 8 samples spanning at least 180 degrees. Raises
    FitError when the fitted offset is non-positive.
    """
    if len(counts_vs_angle) < 8:
        raise ValueError("visibility needs at least 8 angle samples")
    angles = np.array([a for a, _ in counts_vs_angle], dtype=float)
    counts = np.array([c for _, c in counts_vs_angle], dtype=float)
    if angles.max() - angles.min() < 180.0 - 1e-9:
        raise ValueError("angle samples must span at least 180 degrees")
    rad2 = np.deg2rad(2.0 * angles)
    design = np.column_stack([np.ones_like(rad2), np.cos(rad2), np.sin(rad2)])
    (a, c, d), *_ = np.linalg.lstsq(design, counts, rcond=None)
    if a <= 0:
        raise FitError(f"degenerate fringe fit: offset {a:.4g} <= 0")
    amplitude = math.hypot(c, d)
    v = min(max(amplitude / a, 0.0), 1.0)
    hi, lo = counts.max(), counts.min()
    v_raw = (hi - lo) / (hi + lo) if (hi + lo) > 0 else 0.0
    phase = math.degrees(math.atan2(d, c)) / 2.0
    return VisibilityResult(v, v_raw, float(a), float(amplitude), phase)


@dataclass(frozen=True)
class CertBlock:
    """Per-block certification record."""

    t_start: int
    t_end: int
    s: float
    s_stderr: float
    visibility: dict[str, float] = field(default_factory=dict)
    g2: float = float("nan")
    n_cert_events: int = 0
    verdict: Verdict = Verdict.UNCERTIFIED

    @property
    def margin(self) -> float | None:
        """S - 3 sigma_S, the amount by which the Bell verdict's test clears
        (or misses) 2; None where the block has no S."""
        margin = self.s - 3.0 * self.s_stderr
        return None if math.isnan(margin) else margin

    def to_dict(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "S": None if math.isnan(self.s) else self.s,
            "S_stderr": None if math.isnan(self.s_stderr) else self.s_stderr,
            "visibility": self.visibility,
            "g2": None if math.isnan(self.g2) else self.g2,
            "n_cert_events": self.n_cert_events,
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class ChshResult:
    s: float
    s_stderr: float
    e_values: tuple[float, float, float, float]
    counts: tuple[CorrelationCounts, CorrelationCounts, CorrelationCounts, CorrelationCounts]


def chsh_structure(schedule: AnalyzerSchedule) -> bool:
    """Whether the schedule is the canonical 16-combination CHSH cycle that
    :meth:`AnalyzerSchedule.chsh` builds from its own a, a', b and b', every
    angle within 1e-9 degrees."""
    s = schedule.settings
    if len(s) != 16:
        return False
    canonical = AnalyzerSchedule.chsh(s[0][0], s[8][0], s[0][1], s[4][1], schedule.dwell).settings
    return all(abs(x - y) <= 1e-9 for got, want in zip(s, canonical) for x, y in zip(got, want))


def _bin_counts(times: np.ndarray, schedule: AnalyzerSchedule) -> np.ndarray:
    """The events at each setting of the schedule, from their times: on the
    CHSH cycle, the 16 (pair, variant) bins."""
    return np.bincount(schedule.setting_index_at(times), minlength=len(schedule.settings))


def _chsh_from_bins(bins: np.ndarray) -> ChshResult | None:
    counts = tuple(
        CorrelationCounts(*(int(bins[4 * p + v]) for v in range(4))) for p in range(4)
    )
    if any(c.total == 0 for c in counts):
        return None
    e = tuple(correlation_E(c) for c in counts)
    sig = tuple(correlation_E_stderr(c) for c in counts)
    s = chsh_s(*e)
    s_err = math.sqrt(sum(x * x for x in sig))
    return ChshResult(s, s_err, e, counts)


def chsh_measurement(
    coincidences: CoincidenceList, schedule: AnalyzerSchedule
) -> ChshResult:
    """CHSH S over a full coincidence record (canonical schedule required)."""
    if not chsh_structure(schedule):
        raise ValueError("schedule is not a canonical 16-combination CHSH cycle")
    result = _chsh_from_bins(_bin_counts(coincidences.times, schedule))
    if result is None:
        raise InsufficientDataError("a CHSH setting pair has zero coincidences")
    return result


def _g2_singles(stream: TagStream, edges: list[int]) -> list[tuple[int, int]]:
    """The C1 and the C2 tags of ``stream`` from each of the ascending
    ``edges`` to the next, and from the last on: one pass over the channel
    codes, compared a chunk at a time so that no temporary grows with n."""
    ch = stream.channels
    cuts = [*np.searchsorted(stream.timestamps, edges).tolist(), ch.size]
    counts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n_a = n_b = 0
        for at in range(lo, hi, _COUNT_CHUNK):
            part = ch[at:min(at + _COUNT_CHUNK, hi)]
            n_a += int(np.count_nonzero(part == int(Channel.C1)))
            n_b += int(np.count_nonzero(part == int(Channel.C2)))
        counts.append((n_a, n_b))
    return counts


def certify_run(
    coincidences: CoincidenceList,
    schedule: AnalyzerSchedule,
    block_size: int = 100_000,
    *,
    duration: int,
    window: CoincidenceConfig | None = None,
    stream: TagStream | None = None,
) -> tuple[list[CertBlock], float | None, np.ndarray]:
    """Blockwise certification of the analyzer-arm coincidence stream.

    Events are cut into consecutive blocks of ``block_size`` (the
    remainder joins the final block); each block computes S with its
    propagated standard error, g2 (when the tag ``stream`` is supplied:
    from the C1 and C2 singles of the block's span [t_start, t_end)), and
    a verdict. Blocks tile [0, duration], so every bit timestamp falls in
    exactly one block.

    Also returns the run's g2, from every C1 and C2 tag of ``stream``, those
    at ``duration`` included (None without a stream, or if either channel
    has none; one count of the singles serves both), and the run's events
    at each setting of the schedule: the sum of the blocks' counts, each
    block binned once.
    """
    if block_size < MIN_BLOCK_EVENTS:
        raise ValueError(f"certification blocks need at least {MIN_BLOCK_EVENTS} events")
    if duration <= 0:
        raise ValueError("duration must be positive")
    window = window or CoincidenceConfig()
    times = coincidences.times
    structured = chsh_structure(schedule)

    # block k holds events cuts[k]:cuts[k + 1] and spans edges[k]:edges[k + 1];
    # the remainder joins the last block
    n = times.size
    cuts = [k * block_size for k in range(max(n // block_size, 1))] + [n]
    edges = [0, *(int(times[hi]) for hi in cuts[1:-1]), duration]
    singles = None if stream is None else _g2_singles(stream, edges)

    blocks: list[CertBlock] = []
    run_counts = np.zeros(len(schedule.settings), np.int64)
    for bi, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        t_start, t_end = edges[bi], edges[bi + 1]
        bins = _bin_counts(times[lo:hi], schedule)
        run_counts += bins
        result = None
        if structured and (t_end - t_start) >= schedule.cycle_ps:
            result = _chsh_from_bins(bins)
        if result is None:
            blocks.append(CertBlock(t_start, t_end, math.nan, math.nan, n_cert_events=hi - lo))
            continue
        g2 = math.nan
        if singles is not None:
            try:
                g2 = g2_cross(*singles[bi], hi - lo, t_end - t_start, window)
            except InsufficientDataError:
                pass
        if result.s - 3.0 * result.s_stderr > 2.0:
            verdict = Verdict.CERTIFIED_BELL
        else:
            verdict = Verdict.CERTIFIED_G2 if g2 > 2.0 else Verdict.UNCERTIFIED
        blocks.append(CertBlock(t_start, t_end, result.s, result.s_stderr,
                                {"bell_equivalent": result.s / SQRT8}, g2, hi - lo, verdict))

    g2_run = None
    if singles is not None:
        n_a, n_b = map(sum, zip(*singles))
        try:
            g2_run = g2_cross(n_a, n_b, n, duration, window)
        except InsufficientDataError:
            pass
    return blocks, g2_run, run_counts


def verdicts_for_times(blocks: Sequence[CertBlock], times) -> list[Verdict]:
    """The verdict each timestamp inherits from its covering block."""
    if not blocks:
        return [Verdict.UNCERTIFIED] * len(np.atleast_1d(times))
    ends = np.array([b.t_end for b in blocks], dtype=np.int64)
    idx = np.searchsorted(ends, np.asarray(times, dtype=np.int64), side="right")
    idx = np.minimum(idx, len(blocks) - 1)
    return [blocks[i].verdict for i in idx]


def run_verdict(blocks: Sequence[CertBlock]) -> Verdict:
    """Weakest verdict across blocks: one bad block taints the run."""
    if not blocks:
        return Verdict.UNCERTIFIED
    verdicts = {b.verdict for b in blocks}
    if Verdict.UNCERTIFIED in verdicts:
        return Verdict.UNCERTIFIED
    if Verdict.CERTIFIED_G2 in verdicts:
        return Verdict.CERTIFIED_G2
    return Verdict.CERTIFIED_BELL


def fringe_counts(
    coincidences: CoincidenceList,
    schedule: AnalyzerSchedule,
    duration: int,
) -> list[tuple[float, float]]:
    """Exposure-normalized coincidence counts per fringe-scan angle.

    Returns (scan_angle_deg, count scaled to equal per-setting exposure),
    ready for :func:`visibility`. The scan angle is the first (C1)
    analyzer angle of each setting.
    """
    return _fringe_samples(_bin_counts(coincidences.times, schedule), schedule, duration)


def _fringe_samples(
    counts: np.ndarray, schedule: AnalyzerSchedule, duration: int
) -> list[tuple[float, float]]:
    """:func:`fringe_counts` from the ``counts`` of events at each setting."""
    n_settings = len(schedule.settings)
    raw = counts.astype(float)
    cycle = schedule.cycle_ps
    full_cycles = duration // cycle
    rem = duration % cycle
    out = []
    for k in range(n_settings):
        extra = min(max(rem - k * schedule.dwell, 0), schedule.dwell)
        exposure = full_cycles * schedule.dwell + extra
        if exposure <= 0:
            continue
        scale = schedule.dwell / exposure
        out.append((schedule.settings[k][0], raw[k] * scale))
    return out
