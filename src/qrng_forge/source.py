"""Monte-Carlo model of the three-section entangled-pair source.

Pairs are emitted as a homogeneous Poisson process and routed uniformly
to the three diametric section pairs. (U1, D2) and (U2, D1) pairs land
directly on their detectors; (C1, C2) pairs pass the scheduled
polarization analyzers, where the joint transmit/absorb outcome is
sampled from the two-photon projection probabilities. Detector
efficiency, Gaussian timing jitter, dark counts, and dead time are
applied per channel.

The polarization state is ``alpha|HH> - beta|VV>`` mixed with the
maximally mixed state: ``noise_p`` is the pure-state weight, so the
projection probability onto analyzers at angles (t1, t2) is

    noise_p * (alpha cos t1 cos t2 - beta sin t1 sin t2)^2 + (1 - noise_p)/4

which makes the diagonal-basis fringe visibility of the balanced state
exactly ``noise_p``.

Event generation is deterministic for a given ``rng_seed``: emission is
sampled slice by slice with a counter-based Philox generator keyed on
(seed, slice index), :func:`_slice_rng`, so results do not depend on how
work is scheduled.

Tags are ordered by time. Equal timestamps keep slice order; within a
slice the dark tags come first, by channel code, followed by the detected
signal tags in the order U1, D2, U2, D1, C1, C2.

The slices are cut into chunks of ``CHUNK_SLICES``, and each chunk is one
call of the C kernel ``qf_simulate``, with no Python per slice. The kernel
keys each slice's Philox as :func:`_slice_rng` does and draws through C
ports of numpy's samplers, so it makes the draws of the per-slice numpy
reference :func:`_slice_py` bit for bit, and its stream does not depend on
numpy's version; the reference, whose stream does, runs when no compiler is
present. ctypes releases the GIL for each call, so the chunks run on one
thread per CPU this process may use, and they are appended in slice order:
the stream does not depend on the number of threads or on the chunk size.
The slices go into one buffer, which an insertion pass settles into time
order in place (slices overlap only where jitter carries a tag across a
slice edge), and dead time then compacts it in place.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _native
from .timetags import SECTION_PAIRS, Channel, TagStream

#: Fixed time-slice width for seeded event generation (1 ms of stream time).
SLICE_PS = 10**9
# qf_simulate draws a slice's uniform times with 32-bit bounded integers
assert SLICE_PS < 2**32

#: Slices per ``qf_simulate`` call, the unit of work of a simulation thread.
#: Small chunks keep the scratch held at once small: a process that simulates
#: again and again keeps its threads' freed scratch resident.
CHUNK_SLICES = 8

#: Hard cap on expected generated pairs per run.
PAIR_BUDGET = 2**40

_DEG = math.pi / 180.0


class EventBudgetError(RuntimeError):
    """Configured rate x duration would exceed the event budget."""


@dataclass(frozen=True)
class TwoPhotonState:
    """Polarization state amplitudes plus the purity weight ``noise_p``."""

    alpha: float
    beta: float
    noise_p: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("amplitudes must lie in [0, 1]")
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12:
            raise ValueError("alpha^2 + beta^2 must equal 1 within 1e-12")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")

    @classmethod
    def bell(cls, noise_p: float = 1.0) -> "TwoPhotonState":
        r = math.sqrt(0.5)
        return cls(r, r, noise_p)


def state_from_hwp(theta_deg: float, noise_p: float = 1.0) -> TwoPhotonState:
    """State produced by the pump half-wave plate at ``theta_deg``.

    alpha = sin(2 theta), beta = cos(2 theta); theta = 22.5 deg gives the
    balanced (Bell) state. Valid for 0 <= theta <= 45.
    """
    if not 0.0 <= theta_deg <= 45.0:
        raise ValueError(f"half-wave-plate angle {theta_deg} outside [0, 45] degrees")
    two_theta = 2.0 * theta_deg * _DEG
    alpha = math.sin(two_theta)
    beta = math.cos(two_theta)
    # renormalize away rounding residue so the state invariant holds exactly
    norm = math.hypot(alpha, beta)
    return TwoPhotonState(alpha / norm, beta / norm, noise_p)


def projection_probability(
    state: TwoPhotonState, theta1_deg: float, theta2_deg: float
) -> float:
    """Probability that both photons transmit analyzers at (theta1, theta2)."""
    t1 = theta1_deg * _DEG
    t2 = theta2_deg * _DEG
    amp = state.alpha * math.cos(t1) * math.cos(t2) - state.beta * math.sin(t1) * math.sin(t2)
    p = state.noise_p * amp * amp + (1.0 - state.noise_p) / 4.0
    # clamp float dust; the formula is in [0, 1] analytically
    return min(max(p, 0.0), 1.0)


def joint_outcome_probs(
    state: TwoPhotonState, theta1_deg: float, theta2_deg: float
) -> np.ndarray:
    """The four joint analyzer outcomes [TT, Tx, xT, xx] at one setting.

    T means the photon transmits at the scheduled angle, x means it
    projects onto the orthogonal (+90 deg) port and is not detected.
    The four probabilities sum to 1 for any state and angles.
    """
    return np.array(
        [
            projection_probability(state, theta1_deg, theta2_deg),
            projection_probability(state, theta1_deg, theta2_deg + 90.0),
            projection_probability(state, theta1_deg + 90.0, theta2_deg),
            projection_probability(state, theta1_deg + 90.0, theta2_deg + 90.0),
        ]
    )


@dataclass(frozen=True)
class AnalyzerSchedule:
    """Round-robin analyzer settings for the C1/C2 polarization analyzers.

    ``settings`` holds (theta_C1, theta_C2) in degrees; each setting is
    held for ``dwell`` picoseconds, cycling forever. The setting active
    at time t is ``settings[(t // dwell) % len(settings)]``.
    """

    settings: tuple[tuple[float, float], ...]
    dwell: int

    def __post_init__(self):
        if not self.settings:
            raise ValueError("schedule needs at least one setting")
        if not self.dwell > 0:
            raise ValueError("dwell must be a positive picosecond count")
        object.__setattr__(
            self,
            "settings",
            tuple((float(a), float(b)) for a, b in self.settings),
        )
        if not all(math.isfinite(angle) for setting in self.settings for angle in setting):
            raise ValueError(f"settings must be finite angles in degrees, got {self.settings}")

    @property
    def cycle_ps(self) -> int:
        return self.dwell * len(self.settings)

    def setting_index_at(self, times_ps) -> np.ndarray:
        t = np.asarray(times_ps, dtype=np.int64)
        return ((t // self.dwell) % len(self.settings)).astype(np.int64, copy=False)

    @classmethod
    def chsh(
        cls,
        a: float = 0.0,
        a_prime: float = 45.0,
        b: float = 67.5,
        b_prime: float = 22.5,
        dwell: int = SLICE_PS,
    ) -> "AnalyzerSchedule":
        """The 16-combination CHSH certification schedule.

        For each analyzer pair (a,b), (a,b'), (a',b), (a',b') the four
        orthogonal-complement variants are cycled, in canonical order:
        setting 4*p + v covers pair p with variant v in
        (T,T), (T,+90), (+90,T), (+90,+90). The default angles maximize
        |S| for the balanced state.
        """
        settings = []
        for t1, t2 in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)):
            for v1, v2 in ((0.0, 0.0), (0.0, 90.0), (90.0, 0.0), (90.0, 90.0)):
                settings.append((t1 + v1, t2 + v2))
        return cls(tuple(settings), dwell)

    @classmethod
    def fringe(
        cls,
        fixed_deg: float,
        steps: int = 16,
        start: float = 0.0,
        span: float = 180.0,
        dwell: int = SLICE_PS,
    ) -> "AnalyzerSchedule":
        """A visibility fringe scan: C2 fixed, C1 swept across ``span``.

        Endpoints inclusive, so the scan covers the full span required by
        the visibility fit.
        """
        if steps < 2:
            raise ValueError("fringe scan needs at least 2 steps")
        angles = np.linspace(start, start + span, steps)
        return cls(tuple((float(a), float(fixed_deg)) for a in angles), dwell)


def _per_channel(value) -> np.ndarray:
    """Expand a scalar or per-channel mapping to a 6-element float array."""
    if isinstance(value, Mapping):
        arr = np.zeros(6)
        for ch, v in value.items():
            arr[int(ch)] = float(v)
        return arr
    return np.full(6, float(value))


@dataclass(frozen=True)
class SourceConfig:
    """Full description of one simulated acquisition."""

    pump_power: float  # mW
    pair_rate_coeff: float  # generated pairs per second per mW
    state: TwoPhotonState
    analyzer_schedule: AnalyzerSchedule
    duration: int  # ps
    rng_seed: int = 0
    det_efficiency: float | Mapping[Channel, float] = 1.0
    dark_rate: float | Mapping[Channel, float] = 0.0  # counts/s per channel
    jitter_sigma: float = 350.0  # ps
    dead_time: int = 0  # ps, 0 disables

    def __post_init__(self):
        # written so that NaN fails every check, and infinity each float one
        if not 0 < self.pump_power < math.inf:
            raise ValueError(f"pump_power must be finite and > 0 mW, got {self.pump_power}")
        if not 0 <= self.pair_rate_coeff < math.inf:
            raise ValueError(f"pair_rate_coeff must be finite and >= 0, got {self.pair_rate_coeff}")
        if not self.duration > 0:
            raise ValueError("duration must be a positive picosecond count")
        if not 0 <= self.jitter_sigma < math.inf:
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")
        if not self.dead_time >= 0:
            raise ValueError("dead_time must be >= 0")
        eff = _per_channel(self.det_efficiency)
        if not np.all((eff > 0) & (eff <= 1)):
            raise ValueError("det_efficiency must lie in (0, 1] per channel")
        dark = _per_channel(self.dark_rate)
        if not np.all((dark >= 0) & (dark < math.inf)):
            raise ValueError("dark_rate must be finite and >= 0 per channel")
        if self.expected_pairs() >= PAIR_BUDGET:
            raise EventBudgetError(
                f"expected {self.expected_pairs():.3g} pairs exceeds budget 2^40"
            )

    @property
    def pair_rate(self) -> float:
        """Generated pair rate in pairs per second."""
        return self.pair_rate_coeff * self.pump_power

    def expected_pairs(self) -> float:
        return self.pair_rate * self.duration * 1e-12

    def efficiency_array(self) -> np.ndarray:
        return _per_channel(self.det_efficiency)

    def dark_array(self) -> np.ndarray:
        return _per_channel(self.dark_rate)


@dataclass(frozen=True)
class RateSummary:
    """Analytic singles and coincidence rates implied by a config (Hz)."""

    singles: dict[Channel, float]
    coincidences: dict[tuple[Channel, Channel], float]


def expected_rates(config: SourceConfig) -> RateSummary:
    """Analytic validator for :func:`generate_events`.

    Singles on U/D channels are (pair_rate/3)*eta + dark; C channels are
    additionally scaled by the schedule-averaged marginal transmit
    probability. Section-pair coincidence rates carry eta^2 and, for
    (C1, C2), the schedule-averaged joint projection probability.
    """
    eta = config.efficiency_array()
    dark = config.dark_array()
    r3 = config.pair_rate / 3.0
    sched = config.analyzer_schedule
    p_tt = 0.0
    p_c1 = 0.0
    p_c2 = 0.0
    for t1, t2 in sched.settings:
        probs = joint_outcome_probs(config.state, t1, t2)
        p_tt += probs[0]
        p_c1 += probs[0] + probs[1]
        p_c2 += probs[0] + probs[2]
    n = len(sched.settings)
    p_tt /= n
    p_c1 /= n
    p_c2 /= n

    singles: dict[Channel, float] = {}
    for ch in (Channel.U1, Channel.U2, Channel.D1, Channel.D2):
        singles[ch] = r3 * eta[int(ch)] + dark[int(ch)]
    singles[Channel.C1] = r3 * eta[int(Channel.C1)] * p_c1 + dark[int(Channel.C1)]
    singles[Channel.C2] = r3 * eta[int(Channel.C2)] * p_c2 + dark[int(Channel.C2)]

    coinc = {(a, b): r3 * eta[int(a)] * eta[int(b)] for a, b in SECTION_PAIRS}
    coinc[(Channel.C1, Channel.C2)] *= p_tt
    return RateSummary(singles, coinc)


def _slice_rng(seed: int, s: int) -> np.random.Generator:
    """The generator that slice ``s`` of an acquisition seeded ``seed``
    draws from: ``Generator(Philox(SeedSequence([seed mod 2^64, s])))``."""
    key = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, s])
    return np.random.Generator(np.random.Philox(key))


def _dead_time_keep_py(ts: np.ndarray, ch: np.ndarray, dead_time: int) -> np.ndarray:
    """Non-paralyzable dead time on a time-ordered stream, per channel: a
    tag stays if it is its channel's first or trails the channel's last
    kept tag by at least ``dead_time``. Returns the mask of tags that stay,
    by a Python loop: the reference for ``qf_dead_time``."""
    keep = np.ones(ts.size, dtype=bool)
    last: dict[int, int] = {}
    for i, (t, c) in enumerate(zip(ts.tolist(), ch.tolist())):
        if c in last and t - last[c] < dead_time:
            keep[i] = False
        else:
            last[c] = t
    return keep


def _apply_dead_time(lib, ts: np.ndarray, ch: np.ndarray, dead_time: int) -> int:
    """Drop the tags lost to dead time, moving the survivors to the front of
    ``ts`` and ``ch`` in order; returns how many survive."""
    n = ts.size
    if lib is not None:
        return lib.qf_dead_time(_native.address(ts, np.int64, n, True),
                                _native.address(ch, np.uint8, n, True), n, dead_time)
    keep = _dead_time_keep_py(ts, ch, dead_time)
    k = int(keep.sum())
    ts[:k] = ts[keep]
    ch[:k] = ch[keep]
    return k


def _settle_py(ts: np.ndarray, ch: np.ndarray) -> None:
    """Sort ``(ts, ch)`` by time in place, equal times in their given order:
    the reference for ``qf_settle``."""
    order = np.argsort(ts, kind="stable")
    ts[:] = ts[order]
    ch[:] = ch[order]


def _settle(lib, ts: np.ndarray, ch: np.ndarray) -> bool:
    """Sort the concatenated slices by time in place, equal times in slice
    order, as :func:`_settle_py` does.

    Slices are sorted runs that overlap only where jitter carries a tag
    across a slice edge, so ``qf_settle``'s insertion pass makes few moves.
    It stops after ``len(ts)`` moves; the stable argsort then finishes, with
    the same result, since the pass never reorders equal times. Returns True
    when the insertion pass alone sorted the stream.
    """
    n = ts.size
    if lib is not None and lib.qf_settle(_native.address(ts, np.int64, n, True),
                                         _native.address(ch, np.uint8, n, True), n):
        return True
    _settle_py(ts, ch)
    return False


def _slice_order(ts: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(ts, kind="stable")``, by a value sort.

    Each time is packed with its index into one key,
    ``(t - min) << b | index`` with ``b = len(ts).bit_length()``, so equal
    times keep their index order; sorting values is about ten times cheaper
    than an indirect stable sort. A slice whose time span leaves no room
    for the index in 63 bits takes the stable argsort itself.
    """
    if not ts.size:
        return np.empty(0, np.intp)
    lo = int(ts.min())
    b = ts.size.bit_length()
    if (int(ts.max()) - lo) >> (63 - b):
        return np.argsort(ts, kind="stable")
    key = (ts - lo) << b
    key |= np.arange(ts.size)
    key.sort()
    key &= (1 << b) - 1
    return key


@dataclass(frozen=True)
class _SliceModel:
    """What every slice of one acquisition shares: the config and the
    per-setting cumulative outcome table."""

    config: SourceConfig
    cum_probs: np.ndarray  # (settings, 4) float64
    eta: np.ndarray
    dark_per_ps: np.ndarray  # dark counts per picosecond, per channel
    dark_channels: tuple[int, ...]  # channels with a dark rate above 0

    @classmethod
    def of(cls, config: SourceConfig) -> "_SliceModel":
        sched = config.analyzer_schedule
        cum_probs = np.stack([
            np.cumsum(probs / probs.sum())
            for probs in (joint_outcome_probs(config.state, t1, t2)
                          for t1, t2 in sched.settings)
        ])
        dark = config.dark_array()
        return cls(config, cum_probs, config.efficiency_array(), dark * 1e-12,
                   tuple(np.flatnonzero(dark > 0).tolist()))

    def kernel_args(self) -> tuple:
        """The arguments of ``qf_simulate`` before its slice range; the
        addresses are of this model's arrays."""
        config = self.config
        return (config.rng_seed & 0xFFFFFFFFFFFFFFFF, SLICE_PS, config.duration,
                config.pair_rate * 1e-12, _native.address(self.dark_per_ps, np.float64, len(Channel)),
                _native.address(self.eta, np.float64, len(Channel)), float(config.jitter_sigma),
                _native.address(self.cum_probs, np.float64, self.cum_probs.size),
                len(self.cum_probs), config.analyzer_schedule.dwell)


def _slice_py(model: _SliceModel, rng, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """The tags of slice [t0, t1) in time order, by numpy calls only: the
    reference for ``qf_simulate``, and what runs without a compiler.

    Its draws from ``rng``, in this order and with these sizes, define the
    stream: pair count, emission times, sections, one analyzer uniform per
    (C1, C2) pair, one efficiency uniform per signal tag when some channel
    has efficiency below 1, one jitter normal per surviving signal tag, then
    dark counts channel by channel.
    """
    config = model.config
    sched = config.analyzer_schedule
    eta = model.eta
    n_pairs = rng.poisson(config.pair_rate * 1e-12 * (t1 - t0))
    times = rng.integers(t0, t1, n_pairs, dtype=np.int64)
    section = rng.integers(0, 3, n_pairs, dtype=np.int64)

    slice_ts: list[np.ndarray] = []
    slice_ch: list[np.ndarray] = []

    # direct section pairs: one tag per channel at the emission time
    for sec in (0, 1):
        t_sec = times[section == sec]
        for ch in SECTION_PAIRS[sec]:
            slice_ts.append(t_sec)
            slice_ch.append(np.full(t_sec.size, int(ch), dtype=np.uint8))

    # analyzed pair: joint outcome decides which C detectors fire; the
    # count of cumulative probabilities <= u is searchsorted(side="right")
    t_c = times[section == 2]
    idx = sched.setting_index_at(t_c)
    u = rng.random(t_c.size)
    outcome = np.minimum((model.cum_probs[idx] <= u[:, None]).sum(axis=1), 3)
    c1_hit = (outcome == 0) | (outcome == 1)
    c2_hit = (outcome == 0) | (outcome == 2)
    slice_ts.append(t_c[c1_hit])
    slice_ch.append(np.full(int(c1_hit.sum()), int(Channel.C1), dtype=np.uint8))
    slice_ts.append(t_c[c2_hit])
    slice_ch.append(np.full(int(c2_hit.sum()), int(Channel.C2), dtype=np.uint8))

    ts_sig = np.concatenate(slice_ts)
    ch_sig = np.concatenate(slice_ch)

    # detector efficiency thins signal tags per channel
    if np.any(eta < 1.0):
        survive = rng.random(ts_sig.size) < eta[ch_sig]
        ts_sig = ts_sig[survive]
        ch_sig = ch_sig[survive]

    # timing jitter on detected signal photons
    if config.jitter_sigma > 0 and ts_sig.size:
        ts_sig = ts_sig + np.rint(
            rng.normal(0.0, config.jitter_sigma, ts_sig.size)
        ).astype(np.int64)
        np.clip(ts_sig, 0, config.duration, out=ts_sig)

    # dark counts, uniform in [t0, t1), drawn channel by channel
    dark_ts: list[np.ndarray] = []
    dark_ch: list[np.ndarray] = []
    for ch in model.dark_channels:
        n_dark = rng.poisson(model.dark_per_ps[ch] * (t1 - t0))
        if n_dark:
            dark_ts.append(rng.integers(t0, t1, n_dark, dtype=np.int64))
            dark_ch.append(np.full(n_dark, ch, dtype=np.uint8))
    ts_slice = np.concatenate([*dark_ts, ts_sig])
    ch_slice = np.concatenate([*dark_ch, ch_sig])
    order = _slice_order(ts_slice)
    return ts_slice[order], ch_slice[order]


class _TagBuffer:
    """Append-only timestamp and channel columns. The first allocation is
    sized from the expected tag count; pages past what is written are
    never touched, so the slack costs address space, not memory."""

    def __init__(self, capacity: int):
        self.n = 0
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        ts = np.empty(capacity, np.int64)
        ch = np.empty(capacity, np.uint8)
        if self.n:
            ts[: self.n] = self.ts[: self.n]
            ch[: self.n] = self.ch[: self.n]
        self.ts, self.ch = ts, ch

    def append(self, ts: np.ndarray, ch: np.ndarray) -> None:
        end = self.n + ts.size
        if end > self.ts.size:
            self._alloc(max(end, self.ts.size + self.ts.size // 4))
        self.ts[self.n:end] = ts
        self.ch[self.n:end] = ch
        self.n = end


def _n_slices(config: SourceConfig) -> int:
    return (config.duration + SLICE_PS - 1) // SLICE_PS


def _expected_tags(config: SourceConfig, duration: int) -> int:
    """A tag count that ``duration`` ps of ``config``'s acquisition stays
    under but for a fluctuation of 8 standard deviations."""
    mean = sum(expected_rates(config).singles.values()) * duration * 1e-12
    return int(mean + 8 * math.sqrt(mean)) + 4096


def _simulate_kernel():
    """``qf_simulate``, or None when no compiler works and the numpy
    reference has to run."""
    lib = _native.library()
    return None if lib is None else lib.qf_simulate


def simulation_workers(config: SourceConfig) -> int:
    """The number of threads that run ``qf_simulate`` for ``config``'s
    acquisition: :func:`_native.workers` for one job per chunk of
    ``CHUNK_SLICES`` slices; 0 when the numpy reference runs instead."""
    if _simulate_kernel() is None:
        return 0
    return _native.workers(-(-_n_slices(config) // CHUNK_SLICES))


def _kernel_chunk(kernel, args: tuple, s0: int, s1: int, ts: np.ndarray, ch: np.ndarray) -> list:
    """The tags of slices [s0, s1) by ``qf_simulate``, as (ts, ch) pieces in
    slice order, the first in the scratch ``ts`` and ``ch``. A call that runs
    out of room returns the slices it finished, and the next one starts at
    the first it did not, in fresh scratch that holds that slice at least."""
    pieces = []
    counts = np.zeros(2, np.int64)
    while True:
        capacity = ts.size
        s0 = kernel(*args, s0, s1, _native.address(ts, np.int64, capacity, True),
                    _native.address(ch, np.uint8, capacity, True), capacity,
                    _native.address(counts, np.int64, 2, True))
        if s0 < 0:
            raise MemoryError("qf_simulate could not allocate its slice scratch")
        pieces.append((ts[: counts[0]], ch[: counts[0]]))
        if s0 == s1:
            return pieces
        capacity = max(capacity, int(counts[1]))
        ts = np.empty(capacity, np.int64)
        ch = np.empty(capacity, np.uint8)


def _simulate_c(kernel, model: _SliceModel, tags: _TagBuffer, workers: int,
                chunk: int = CHUNK_SLICES, capacity: int | None = None) -> None:
    """Append every slice of the acquisition to ``tags`` by ``qf_simulate``,
    ``chunk`` slices a call, on ``workers`` threads. Each call gets its own
    scratch, of ``capacity`` tags (by default what a chunk is expected to
    hold), and the calling thread appends the chunks in slice order, with at
    most ``workers + 1`` of them submitted and not yet appended."""
    # imported here: concurrent.futures loads logging, about 10 ms and 0.6 MiB
    # that a process which never simulates need not pay
    from concurrent.futures import ThreadPoolExecutor

    args = model.kernel_args()
    if capacity is None:
        capacity = _expected_tags(model.config, chunk * SLICE_PS)
    n_slices = _n_slices(model.config)
    chunks = [(s, min(s + chunk, n_slices)) for s in range(0, n_slices, chunk)]

    def append(pieces):
        for ts, ch in pieces:
            tags.append(ts, ch)

    with ThreadPoolExecutor(workers) as pool:
        running = deque()
        for s0, s1 in chunks:
            # scratch taken here, not in the worker, whose freed heap stays resident
            running.append(pool.submit(_kernel_chunk, kernel, args, s0, s1,
                                       np.empty(capacity, np.int64), np.empty(capacity, np.uint8)))
            if len(running) > workers:
                append(running.popleft().result())
        while running:
            append(running.popleft().result())


def generate_events(config: SourceConfig) -> TagStream:
    """Sample one full acquisition into a sorted six-channel TagStream,
    in the tag order stated in the module docstring.

    The slices are built by ``qf_simulate`` on :func:`simulation_workers`
    threads (or, without it, by its reference :func:`_slice_py`) and
    appended in slice order to one buffer, which :func:`_settle` sorts in
    place and dead time then compacts in place.
    """
    lib = _native.library()
    model = _SliceModel.of(config)
    tags = _TagBuffer(_expected_tags(config, config.duration))
    kernel = _simulate_kernel()
    if kernel is not None:
        _simulate_c(kernel, model, tags, simulation_workers(config))
    else:
        for s in range(_n_slices(config)):
            t0 = s * SLICE_PS
            tags.append(*_slice_py(model, _slice_rng(config.rng_seed, s), t0,
                                   min(t0 + SLICE_PS, config.duration)))

    ts = tags.ts[: tags.n]
    ch = tags.ch[: tags.n]
    _settle(lib, ts, ch)
    if config.dead_time > 0 and ts.size:
        n = _apply_dead_time(lib, ts, ch, config.dead_time)
        ts = ts[:n]
        ch = ch[:n]
    return TagStream(ts, ch, config.duration, validate=False)
