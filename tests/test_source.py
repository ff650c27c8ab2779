import hashlib
import math
import shutil

import numpy as np
import pytest

from qrng_forge import (
    AnalyzerSchedule,
    Channel,
    CoincidenceConfig,
    SourceConfig,
    TwoPhotonState,
    encode_stream,
    expected_rates,
    find_coincidences,
    fringe_counts,
    generate_events,
    joint_outcome_probs,
    projection_probability,
    state_from_hwp,
    visibility,
)
from qrng_forge import _native, source
from qrng_forge.source import SLICE_PS, EventBudgetError

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")

BELL = TwoPhotonState.bell()


def small_config(**kwargs):
    defaults = dict(
        pump_power=1.0,
        pair_rate_coeff=10**6,
        state=BELL,
        analyzer_schedule=AnalyzerSchedule.chsh(dwell=10**7),
        duration=10**12,
        rng_seed=42,
        jitter_sigma=0.0,
    )
    defaults.update(kwargs)
    return SourceConfig(**defaults)


class TestState:
    def test_hwp_bell_point(self):
        state = state_from_hwp(22.5)
        assert state.alpha == pytest.approx(0.70711, abs=5e-6)
        assert state.beta == pytest.approx(0.70711, abs=5e-6)
        assert state.noise_p == 1.0

    def test_hwp_endpoints(self):
        vv = state_from_hwp(0.0)
        assert (vv.alpha, vv.beta) == pytest.approx((0.0, 1.0), abs=1e-15)
        hh = state_from_hwp(45.0)
        assert (hh.alpha, hh.beta) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_hwp_out_of_range(self):
        with pytest.raises(ValueError):
            state_from_hwp(-1.0)
        with pytest.raises(ValueError):
            state_from_hwp(45.1)

    def test_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            TwoPhotonState(0.5, 0.5)


class TestProjection:
    def test_bell_parallel_zero(self):
        assert projection_probability(BELL, 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_bell_diagonal_null(self):
        # amplitude cos(t1 + t2)/sqrt(2) vanishes at 90 degrees total
        assert projection_probability(BELL, 45, 45) == pytest.approx(0.0, abs=1e-12)

    def test_werner_noise_floor(self):
        noisy = TwoPhotonState.bell(0.8)
        assert projection_probability(noisy, 45, 45) == pytest.approx(0.05, abs=1e-12)

    def test_bell_analytic_cos_squared(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0, 180, 2)
            expected = math.cos(math.radians(t1 + t2)) ** 2 / 2.0
            assert projection_probability(BELL, t1, t2) == pytest.approx(expected, abs=1e-12)

    def test_outcomes_sum_to_one(self, rng):
        for _ in range(100):
            theta = rng.uniform(0, 45)
            noise = rng.uniform(0, 1)
            state = state_from_hwp(theta, noise)
            t1, t2 = rng.uniform(-90, 270, 2)
            total = joint_outcome_probs(state, t1, t2).sum()
            assert total == pytest.approx(1.0, abs=1e-12)


class TestExpectedRates:
    def test_ud_singles(self):
        cfg = small_config(pair_rate_coeff=3 * 10**6)
        rates = expected_rates(cfg)
        assert rates.singles[Channel.U1] == pytest.approx(10**6)

    def test_eta_squared_coincidence(self):
        cfg = small_config(pair_rate_coeff=3 * 10**6, det_efficiency=0.5)
        rates = expected_rates(cfg)
        assert rates.coincidences[(Channel.U1, Channel.D2)] == pytest.approx(0.25 * 10**6)

    def test_analyzer_scaled_c_pair(self):
        fixed = AnalyzerSchedule(((0.0, 0.0),), dwell=10**6)
        cfg = small_config(pair_rate_coeff=3 * 10**6, analyzer_schedule=fixed)
        rates = expected_rates(cfg)
        # projection_probability(bell, 0, 0) = 0.5
        assert rates.coincidences[(Channel.C1, Channel.C2)] == pytest.approx(0.5 * 10**6)
        assert rates.singles[Channel.C1] == pytest.approx(0.5 * 10**6)


class TestGenerateEvents:
    def test_same_seed_byte_exact(self):
        cfg = small_config(duration=2 * 10**11)
        a = generate_events(cfg)
        b = generate_events(cfg)
        assert encode_stream(a) == encode_stream(b)

    def test_different_seeds_differ(self):
        for seed in range(10):
            s1 = generate_events(small_config(duration=10**10, rng_seed=seed))
            s2 = generate_events(small_config(duration=10**10, rng_seed=seed + 1000))
            assert encode_stream(s1) != encode_stream(s2)

    def test_section_split_is_uniform_thirds(self):
        cfg = small_config(duration=10**12)  # ~1e6 pairs
        stream = generate_events(cfg)
        counts = stream.counts_by_channel()
        n_pairs = cfg.expected_pairs()
        sigma = math.sqrt(n_pairs * (1 / 3) * (2 / 3))
        for ch in (Channel.U1, Channel.U2, Channel.D1, Channel.D2):
            assert abs(counts[ch] - n_pairs / 3) < 4 * sigma

    def test_dark_only_poisson_counts(self):
        cfg = small_config(pair_rate_coeff=0.0, dark_rate=1000.0, duration=10**12)
        stream = generate_events(cfg)
        counts = stream.counts_by_channel()
        for ch in Channel:
            assert abs(counts[ch] - 1000) < 4 * math.sqrt(1000)

    def test_sampler_matches_analytic_rates(self):
        base = dict(
            pair_rate_coeff=3 * 10**5,
            det_efficiency=0.8,
            dark_rate=200.0,
            duration=10**12,
            jitter_sigma=200.0,
        )
        for seed in range(10):
            cfg = small_config(rng_seed=seed, **base)
            expected = expected_rates(cfg)
            counts = generate_events(cfg).counts_by_channel()
            duration_s = cfg.duration * 1e-12
            for ch in Channel:
                mean = expected.singles[ch] * duration_s
                assert abs(counts[ch] - mean) < 4 * math.sqrt(mean), (seed, ch)

    def test_event_budget_error(self):
        with pytest.raises(EventBudgetError):
            small_config(pair_rate_coeff=10**13, duration=10**12)

    def test_jitter_keeps_stream_valid(self):
        cfg = small_config(jitter_sigma=500.0, duration=10**10)
        stream = generate_events(cfg)
        assert np.all(np.diff(stream.timestamps) >= 0)
        assert stream.timestamps.min() >= 0
        assert stream.timestamps.max() <= cfg.duration

    def test_dead_time_enforced_per_channel(self):
        cfg = small_config(
            pair_rate_coeff=0.0, dark_rate=10**5, dead_time=5000, duration=10**10
        )
        stream = generate_events(cfg)
        for ch in Channel:
            times = stream.channel_times(ch)
            assert times.size > 0
            assert np.diff(times).min() >= 5000


#: Pinned acquisitions and the sha256 of their QTT1 encoding. The digests
#: were taken with one stable argsort of the whole stream in place of the
#: per-slice key sort, so they pin tag order as well as tag content.
GOLDEN = {
    # no jitter: U1/D2, U2/D1 and C1/C2 tags tie at their emission times
    "ties": (
        dict(duration=3 * 10**9, rng_seed=7),
        "0904fdbd15d1359cc98ace23141d67a3ffda706194b10d2f00b46f756ed800d8",
    ),
    # dark counts, per-channel efficiency, dead time, a partial last slice
    "dark_eff_dead": (
        dict(
            duration=2 * 10**9 + 500_000_123,
            rng_seed=8,
            det_efficiency={ch: 0.95 - 0.05 * int(ch) for ch in Channel},
            dark_rate=5 * 10**4,
            dead_time=200_000,
            jitter_sigma=350.0,
        ),
        "726a72b613ef8b35df75aea25f4173ddcb63a68abe0e2a0755f329fb444548af",
    ),
    # jitter of half a slice: tags cross slice edges and pile up, clipped,
    # at 0 and at the duration
    "wide_jitter": (
        dict(duration=4 * 10**9, rng_seed=9, dark_rate=10**4, jitter_sigma=5e8),
        "ec74950829ea142a98c279627cd525a69667000ede51ffdaafc28fa6beca4ef6",
    ),
    # the bell_run benchmark shape, shortened to 30 slices
    "bell_run": (
        dict(
            pair_rate_coeff=3 * 10**6,
            duration=3 * 10**10,
            rng_seed=21,
            jitter_sigma=100.0,
        ),
        "e9b431dc4ee41b6de0a9c1839396a61e28a70c5418418bd1a1093d2a479129cf",
    ),
}


def stream_digest(cfg) -> str:
    return hashlib.sha256(encode_stream(generate_events(cfg))).hexdigest()


class TestGoldenStreams:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name):
        kwargs, digest = GOLDEN[name]
        assert stream_digest(small_config(**kwargs)) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_with_reference_slice_sort(self, name, monkeypatch):
        # the numpy path, its slices sorted by the stable argsort that
        # _slice_order falls back to when its packed key does not fit
        monkeypatch.setattr(_native, "library", lambda: None)
        monkeypatch.setattr(source, "_slice_order", lambda ts: np.argsort(ts, kind="stable"))
        kwargs, digest = GOLDEN[name]
        assert stream_digest(small_config(**kwargs)) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_numpy_backend(self, name, monkeypatch):
        # the per-slice numpy reference and the stable-argsort settle
        monkeypatch.setattr(_native, "library", lambda: None)
        kwargs, digest = GOLDEN[name]
        assert stream_digest(small_config(**kwargs)) == digest

    @needs_gcc
    def test_only_wide_jitter_takes_settle_fallback(self, monkeypatch):
        settled = {}
        settle = source._settle
        for name, (kwargs, digest) in sorted(GOLDEN.items()):
            def spy(lib, ts, ch):
                settled[name] = settle(lib, ts, ch)
                return settled[name]
            monkeypatch.setattr(source, "_settle", spy)
            assert stream_digest(small_config(**kwargs)) == digest
        assert settled == {name: name != "wide_jitter" for name in GOLDEN}

    def test_slice_order_equals_stable_argsort(self, rng):
        big = 2**62
        cases = [
            np.empty(0, np.int64),
            np.array([5], np.int64),
            np.array([3, 3, 1, 3, 1], np.int64),
            rng.integers(0, 50, 5000),
            rng.integers(10**9, 2 * 10**9, 4097),
            # spans too wide for the packed key: the fallback path
            np.array([big, 0, big, 0, 1], np.int64),
            rng.choice(np.array([0, 7, big - 1, big], np.int64), 3000),
        ]
        for ts in cases:
            ts = ts.astype(np.int64)
            assert np.array_equal(source._slice_order(ts), np.argsort(ts, kind="stable"))


class TestSliceRng:
    SEEDS = (0, 1, 7, 42, 2**31, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -1, -(2**40))
    SLICES = (0, 1, 2, 3, 4, 5, 9, 10, 99, 999, 1000, 4499, 4500, 46399, 46400,
              10**6, 2**31 - 1, 2**32, 2**32 + 3, 2**40)

    @needs_gcc
    def test_c_slice_key_equals_seed_sequence(self, rng):
        # qf_slice_key ports SeedSequence's mixing: the 11 x 20 grid above, then
        # 10^4 random pairs whose values take one or two 32-bit words
        lib = _native.library()
        pairs = [(seed & (2**64 - 1), s) for seed in self.SEEDS for s in self.SLICES]
        for _ in range(10**4):  # shifted right by 0 to 63 bits: every magnitude
            pairs.append((int(rng.integers(0, 2**64, dtype=np.uint64)) >> int(rng.integers(0, 64)),
                          int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63))))
        key = np.empty(2, np.uint64)
        for seed, s in pairs:
            lib.qf_slice_key(seed, s, _native.address(key, np.uint64, 2, True))
            want = np.random.SeedSequence([seed, s]).generate_state(2, np.uint64)
            assert np.array_equal(key, want), (seed, s)


class TestNoiseMonotonicity:
    def test_noise_p_raises_diagonal_visibility(self):
        fits = []
        for noise in (0.5, 0.75, 0.95):
            sched = AnalyzerSchedule.fringe(45.0, steps=16, dwell=10**7)
            cfg = small_config(
                state=TwoPhotonState.bell(noise),
                analyzer_schedule=sched,
                pair_rate_coeff=2 * 10**6,
                duration=5 * 10**11,
            )
            stream = generate_events(cfg)
            cc = find_coincidences(
                stream.channel_times(Channel.C1),
                stream.channel_times(Channel.C2),
                CoincidenceConfig(1000),
            )
            samples = fringe_counts(cc, sched, cfg.duration)
            fits.append(visibility(samples).v)
        assert fits[0] < fits[1] < fits[2]
        for fit, noise in zip(fits, (0.5, 0.75, 0.95)):
            assert fit == pytest.approx(noise, abs=0.03)


def slice_kernel_configs(rng):
    """Configs whose slices the C kernels must build exactly as the numpy
    reference does."""
    yield small_config(  # dark counts, per-channel efficiency, no jitter,
        # a partial last slice and a dwell that does not divide SLICE_PS
        duration=3 * SLICE_PS + 123_457, rng_seed=1, dark_rate=10**5, jitter_sigma=0.0,
        det_efficiency={ch: 0.5 + 0.09 * int(ch) for ch in Channel},
        analyzer_schedule=AnalyzerSchedule.chsh(dwell=3_333_331),
    )
    yield small_config(  # most slices hold no pair
        pair_rate_coeff=500, duration=20 * SLICE_PS, rng_seed=2, jitter_sigma=350.0,
    )
    yield small_config(  # a fringe schedule, pure and noisy states
        duration=2 * SLICE_PS, rng_seed=3, jitter_sigma=350.0, det_efficiency=0.7,
        state=TwoPhotonState.bell(0.8),
        analyzer_schedule=AnalyzerSchedule.fringe(45.0, steps=7, dwell=123_456_789),
    )
    yield small_config(  # dark counts only
        pair_rate_coeff=0.0, dark_rate=10**6, duration=2 * SLICE_PS, rng_seed=4,
    )
    yield small_config(**GOLDEN["wide_jitter"][0])  # tags clipped to 0 and the duration
    for seed in range(5, 11):
        yield small_config(
            pair_rate_coeff=float(rng.choice([10**3, 10**5, 3 * 10**6])),
            duration=int(rng.integers(1, 3 * SLICE_PS)),
            rng_seed=seed,
            state=state_from_hwp(float(rng.uniform(0, 45)), float(rng.uniform(0, 1))),
            analyzer_schedule=AnalyzerSchedule(
                tuple(map(tuple, rng.uniform(-90, 270, (int(rng.integers(1, 20)), 2)))),
                int(rng.integers(1, 2 * SLICE_PS)),
            ),
            det_efficiency={ch: float(rng.uniform(0.05, 1.0)) for ch in Channel}
            if seed % 2 else 1.0,
            dark_rate=float(rng.choice([0.0, 10**4, 10**6])),
            jitter_sigma=float(rng.choice([0.0, 100.0, 5e7])),
        )


def kernel_slices(cfg, workers, chunk, capacity=None):
    """The concatenated slices of ``cfg`` from ``qf_simulate``, before settling."""
    model = source._SliceModel.of(cfg)
    tags = source._TagBuffer(16)  # grows as chunks arrive
    source._simulate_c(source._simulate_kernel(), model, tags, workers, chunk, capacity)
    return tags.ts[:tags.n], tags.ch[:tags.n]


@needs_gcc
class TestSliceKernels:
    """The C slice path (``qf_simulate``, ``_settle``, dead time) against the
    numpy reference it replaces."""

    def test_slices_equal_numpy_reference(self, rng):
        kernel = source._simulate_kernel()
        assert kernel is not None
        for cfg in slice_kernel_configs(rng):
            model = source._SliceModel.of(cfg)
            for s in range((cfg.duration + SLICE_PS - 1) // SLICE_PS):
                t0, t1 = s * SLICE_PS, min((s + 1) * SLICE_PS, cfg.duration)
                pieces = source._kernel_chunk(kernel, model.kernel_args(), s, s + 1,
                                              np.empty(64, np.int64), np.empty(64, np.uint8))
                got_ts = np.concatenate([ts for ts, _ in pieces])
                got_ch = np.concatenate([ch for _, ch in pieces])
                want_ts, want_ch = source._slice_py(model, source._slice_rng(cfg.rng_seed, s), t0, t1)
                assert np.array_equal(got_ts, want_ts), (cfg, s)
                assert np.array_equal(got_ch, want_ch), (cfg, s)

    def test_one_picosecond_slices_draw_no_times(self):
        # a 1-ps slice draws its times from a range of one value, which takes
        # no draw; were one taken, the sections and dark counts after it would
        # come out of step with the reference
        cfg = small_config(pair_rate_coeff=3e12, duration=60, rng_seed=13, dark_rate=5e11,
                           jitter_sigma=0.4, det_efficiency=0.8,
                           analyzer_schedule=AnalyzerSchedule.chsh(dwell=7))
        model = source._SliceModel.of(cfg)
        args = list(model.kernel_args())
        args[1] = 1  # the slice width, SLICE_PS for a real acquisition
        pieces = source._kernel_chunk(source._simulate_kernel(), tuple(args), 0, cfg.duration,
                                      np.empty(64, np.int64), np.empty(64, np.uint8))
        want = [source._slice_py(model, source._slice_rng(cfg.rng_seed, s), s, s + 1)
                for s in range(cfg.duration)]
        assert sum(ts.size for ts, _ in want) > 300
        assert np.array_equal(np.concatenate([ts for ts, _ in pieces]),
                              np.concatenate([ts for ts, _ in want]))
        assert np.array_equal(np.concatenate([ch for _, ch in pieces]),
                              np.concatenate([ch for _, ch in want]))

    def test_stream_independent_of_workers_and_chunks(self):
        # the appended slices, before settling, for 1 and 2 threads, 5 threads
        # on fewer CPUs, and chunks of 1, 7 and all slices
        configs = [small_config(**GOLDEN["dark_eff_dead"][0]),
                   small_config(**GOLDEN["wide_jitter"][0]),
                   small_config(duration=23 * SLICE_PS + 5, rng_seed=12, jitter_sigma=100.0)]
        for cfg in configs:
            n_slices = (cfg.duration + SLICE_PS - 1) // SLICE_PS
            want_ts, want_ch = kernel_slices(cfg, 1, n_slices)
            assert want_ts.size > 0
            for workers in (1, 2, 5):
                for chunk in (1, 7, n_slices):
                    got_ts, got_ch = kernel_slices(cfg, workers, chunk)
                    assert np.array_equal(got_ts, want_ts), (cfg, workers, chunk)
                    assert np.array_equal(got_ch, want_ch), (cfg, workers, chunk)

    def test_scratch_too_small_for_a_slice(self):
        # one tag of scratch: every call stops at a slice that does not fit,
        # the next starts there in scratch grown to hold it
        cfg = small_config(**GOLDEN["dark_eff_dead"][0])
        want_ts, want_ch = kernel_slices(cfg, 1, 1)
        n_slices = (cfg.duration + SLICE_PS - 1) // SLICE_PS
        for workers, chunk, capacity in ((1, n_slices, 1), (2, 2, 1), (1, n_slices, want_ts.size // 2)):
            got_ts, got_ch = kernel_slices(cfg, workers, chunk, capacity)
            assert np.array_equal(got_ts, want_ts), (workers, chunk, capacity)
            assert np.array_equal(got_ch, want_ch), (workers, chunk, capacity)
        model = source._SliceModel.of(cfg)
        pieces = source._kernel_chunk(source._simulate_kernel(), model.kernel_args(), 0, n_slices,
                                      np.empty(1, np.int64), np.empty(1, np.uint8))
        # the first call finishes no slice, and the later ones resume
        assert pieces[0][0].size == 0 and len(pieces) > 2

    def test_streams_equal_numpy_backend(self, rng, monkeypatch):
        configs = list(slice_kernel_configs(rng))
        fast = [encode_stream(generate_events(cfg)) for cfg in configs]
        monkeypatch.setattr(_native, "library", lambda: None)
        for cfg, got in zip(configs, fast):
            assert got == encode_stream(generate_events(cfg)), cfg

    def test_slice_sort_equals_slice_order(self, rng):
        # qf_slice_sort is an LSD radix sort of 10-bit digits of t - min(t):
        # it runs one pass per digit of the span, and skips a pass whose digit
        # every tag shares
        lib = _native.library()
        big = 2**62
        bits = 10

        def clustered(outlier):  # all but one tag within 1000 ps
            return np.concatenate([rng.integers(0, 1000, 3000), [outlier]])

        def spanning(span):  # times in [0, span], both ends present
            return np.concatenate([[span], rng.integers(0, span, 500, endpoint=True), [0]])

        def model_slice(cfg):  # the times of a source model's first slice, shuffled
            cfg = small_config(**cfg)
            model = source._SliceModel.of(cfg)
            ts, _ = source._slice_py(model, source._slice_rng(cfg.rng_seed, 0), 0, SLICE_PS)
            return rng.permutation(ts)

        slice_times = rng.integers(0, 10**9, 5000)
        cases = [
            np.empty(0, np.int64),
            np.array([5]),
            np.array([9, 4]),
            np.array([4, 4]),
            np.array([5, 5, 5, 5, 5, 5, 5, 5]),  # equal times: no pass
            rng.integers(0, 30, 3000),
            rng.integers(0, 10**6, 4000),
            rng.integers(10**9, 2 * 10**9, 6000),
            np.sort(rng.integers(0, 10**9, 5000))[::-1].copy(),
            # a slice: uniform times in 1e9 ps, jittered by 100 ps
            slice_times + np.rint(rng.normal(0, 100, slice_times.size)).astype(np.int64),
            np.array([2**22 + 3, 5, 2**22, 0, 5]),
            # spans of up to 63 bits
            np.array([2**58, 0, 2**58, 3, 2**45, 2**58 - 1]),
            np.array([big, 0, big, 1]),
            np.array([2**63 - 1, 0, 7, 2**63 - 1, 7]),
            clustered(10**12),
            clustered(10**12)[::-1].copy(),
            clustered(2**63 - 1),  # seven passes, the last at shift 60
            spanning(2**63 - 1),
            # the passes of bits 10 to 29 find digit 0 in every tag: skipped
            np.concatenate([rng.integers(0, 2**bits, 3000), [2**30 + 5, 0, 2**31]]),
            # tags whose t - min(t) share their middle digit, bits 10 to 19, alone
            np.concatenate([(rng.integers(0, 4, 2000) << 2 * bits) + (7 << bits)
                            + rng.integers(0, 2**bits, 2000), [7 << bits]]),
            model_slice(GOLDEN["wide_jitter"][0]),
            model_slice(GOLDEN["bell_run"][0]),
        ]
        # spans at each edge of the pass count: k passes, then k + 1
        for k in range(1, 7):
            cases += [spanning(2**(k * bits) - 1), spanning(2**(k * bits))]
        for ts in cases:
            ts = ts.astype(np.int64)
            ch = rng.integers(0, 6, ts.size).astype(np.uint8)
            out_ts, out_ch = np.empty_like(ts), np.empty_like(ch)
            work_ts, work_ch = ts.copy(), ch.copy()  # the kernel sorts through its input
            lib.qf_slice_sort(_native.address(work_ts, np.int64, ts.size, True),
                              _native.address(work_ch, np.uint8, ts.size, True), ts.size,
                              _native.address(out_ts, np.int64, ts.size, True),
                              _native.address(out_ch, np.uint8, ts.size, True))
            order = source._slice_order(ts)
            assert np.array_equal(out_ts, ts[order]) and np.array_equal(out_ch, ch[order]), ts

    def test_settle_equals_stable_argsort(self, rng):
        lib = _native.library()
        runs = [np.sort(rng.integers(k * 1000 - 30, k * 1000 + 1030, 200)) for k in range(50)]
        near = np.concatenate(runs)  # sorted runs that overlap at their edges
        cases = [
            (np.empty(0, np.int64), True),
            (np.array([7]), True),
            (np.array([1, 3, 2, 3, 3, 2]), True),
            (np.array([3, 3, 1, 3, 1, 2]), False),  # 8 moves for 6 tags
            (near, True),
            (rng.integers(0, 100, 5000), False),  # far from sorted: past the move cap
            (np.repeat(np.arange(500)[::-1], 3), False),
        ]
        for ts, settled in cases:
            ts = ts.astype(np.int64)
            ch = rng.integers(0, 6, ts.size).astype(np.uint8)
            want_ts, want_ch = ts.copy(), ch.copy()
            source._settle_py(want_ts, want_ch)
            assert source._settle(lib, ts, ch) is settled
            assert np.array_equal(ts, want_ts) and np.array_equal(ch, want_ch)

    def test_dead_time_equals_reference(self, rng):
        lib = _native.library()
        cases = [
            (np.empty(0, np.int64), 5),
            (np.array([0, 0, 0, 1, 1, 2]), 1),  # equal timestamps, dead time 1
            (np.sort(rng.integers(0, 2000, 3000)), 1),
            (np.sort(rng.integers(0, 10**6, 20_000)), 500),
            (np.sort(rng.integers(0, 10**6, 20_000)), 10**7),  # one tag per channel
        ]
        for ts, dead_time in cases:
            ts = ts.astype(np.int64)
            ch = rng.integers(0, 6, ts.size).astype(np.uint8)
            keep = source._dead_time_keep_py(ts, ch, dead_time)
            got_ts, got_ch = ts.copy(), ch.copy()
            n = source._apply_dead_time(lib, got_ts, got_ch, dead_time)
            assert n == keep.sum()
            assert np.array_equal(got_ts[:n], ts[keep]) and np.array_equal(got_ch[:n], ch[keep])
            ref_ts, ref_ch = ts.copy(), ch.copy()
            assert source._apply_dead_time(None, ref_ts, ref_ch, dead_time) == n
            assert np.array_equal(ref_ts[:n], ts[keep]) and np.array_equal(ref_ch[:n], ch[keep])
