import math
import tracemalloc

import numpy as np
import pytest

from qrng_forge import (
    AnalyzerSchedule,
    Channel,
    CoincidenceConfig,
    CorrelationCounts,
    SourceConfig,
    TwoPhotonState,
    Verdict,
    chsh_measurement,
    chsh_s,
    correlation_E,
    correlation_E_stderr,
    find_coincidences,
    fringe_counts,
    g2_cross,
    generate_events,
    joint_outcome_probs,
    run_verdict,
    verdicts_for_times,
    visibility,
)
from qrng_forge import certify
from qrng_forge.certify import FitError, InsufficientDataError, certify_run, chsh_structure
from qrng_forge.coincidence import CoincidenceList
from qrng_forge.pipeline import certification_report
from qrng_forge.timetags import TagStream

BELL = TwoPhotonState.bell()
CHSH_ANGLES = ((0.0, 67.5), (0.0, 22.5), (45.0, 67.5), (45.0, 22.5))
WINDOW = CoincidenceConfig(1000)


def analytic_E(state, t1, t2):
    p = joint_outcome_probs(state, t1, t2)
    return (p[0] + p[3] - p[1] - p[2]) / p.sum()


def counts_from_probs(state, t1, t2, total, rng):
    p = joint_outcome_probs(state, t1, t2)
    draw = rng.multinomial(total, p / p.sum())
    return CorrelationCounts(*draw.tolist())


def cert_sim(state, pair_rate=6 * 10**5, duration=4 * 10**12, seed=5, dwell=10**7):
    sched = AnalyzerSchedule.chsh(dwell=dwell)
    cfg = SourceConfig(
        pump_power=1.0,
        pair_rate_coeff=pair_rate,
        state=state,
        analyzer_schedule=sched,
        duration=duration,
        rng_seed=seed,
        jitter_sigma=0.0,
    )
    stream = generate_events(cfg)
    c1 = stream.channel_times(Channel.C1)
    c2 = stream.channel_times(Channel.C2)
    cc = find_coincidences(c1, c2, WINDOW)
    return cc, sched, cfg, stream


class TestVisibility:
    @staticmethod
    def sinusoid_samples(a, b, phase_deg=10.0, steps=16):
        angles = np.linspace(0, 180, steps)
        counts = a + b * np.cos(2 * np.deg2rad(angles - phase_deg))
        return list(zip(angles.tolist(), counts.tolist()))

    def test_exact_sinusoid(self):
        fit = visibility(self.sinusoid_samples(100.0, 95.0))
        assert fit.v == pytest.approx(0.95, abs=1e-9)
        assert fit.offset == pytest.approx(100.0, abs=1e-6)
        assert fit.phase_deg == pytest.approx(10.0, abs=1e-6)

    def test_constant_counts(self):
        fit = visibility(self.sinusoid_samples(80.0, 0.0))
        assert fit.v == pytest.approx(0.0, abs=1e-9)
        assert fit.v_raw == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="8"):
            visibility(self.sinusoid_samples(10, 5)[:6])

    def test_span_requirement(self):
        angles = np.linspace(0, 90, 10)
        with pytest.raises(ValueError, match="span"):
            visibility([(a, 10.0) for a in angles])

    def test_degenerate_fit(self):
        angles = np.linspace(0, 180, 12)
        samples = [(a, -5.0 + math.cos(2 * math.radians(a))) for a in angles]
        with pytest.raises(FitError):
            visibility(samples)

    def test_clipped_to_unit_interval(self):
        fit = visibility(self.sinusoid_samples(10.0, 14.0))
        assert fit.v == 1.0


class TestCorrelationE:
    def test_perfect_correlation(self):
        assert correlation_E(CorrelationCounts(50, 0, 0, 50)) == 1.0

    def test_uncorrelated(self):
        assert correlation_E(CorrelationCounts(25, 25, 25, 25)) == 0.0

    def test_zero_total(self):
        with pytest.raises(InsufficientDataError):
            correlation_E(CorrelationCounts(0, 0, 0, 0))

    def test_bell_analytic_value(self):
        # E(t1, t2) = cos 2(t1 + t2) for the balanced state
        assert analytic_E(BELL, 0.0, 22.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sampled_counts_match_analytic_oracle(self, rng):
        for _ in range(20):
            theta = rng.uniform(5, 40)
            noise = rng.uniform(0.3, 1.0)
            from qrng_forge import state_from_hwp

            state = state_from_hwp(theta, noise)
            t1, t2 = rng.uniform(0, 180, 2)
            total = 40_000
            counts = counts_from_probs(state, t1, t2, total, rng)
            e = correlation_E(counts)
            sigma = correlation_E_stderr(counts)
            sigma = max(sigma, 1.0 / total)
            assert abs(e - analytic_E(state, t1, t2)) < 4 * sigma

    def test_stderr_formula(self):
        counts = CorrelationCounts(30, 10, 10, 30)
        e = correlation_E(counts)
        assert correlation_E_stderr(counts) == pytest.approx(
            math.sqrt((1 - e * e) / 80)
        )


class TestChsh:
    def test_ideal_bell_reaches_tsirelson(self):
        es = [analytic_E(BELL, t1, t2) for t1, t2 in CHSH_ANGLES]
        assert chsh_s(*es) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_product_state_value(self):
        hh = TwoPhotonState(1.0, 0.0)
        # E = cos 2t1 * cos 2t2 for |HH>
        for t1, t2 in CHSH_ANGLES:
            expected = math.cos(2 * math.radians(t1)) * math.cos(2 * math.radians(t2))
            assert analytic_E(hh, t1, t2) == pytest.approx(expected, abs=1e-12)
        es = [analytic_E(hh, t1, t2) for t1, t2 in CHSH_ANGLES]
        assert chsh_s(*es) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_all_zero(self):
        assert chsh_s(0, 0, 0, 0) == 0.0

    def test_linear_in_noise_p(self):
        for noise in (0.6, 0.73, 0.95):
            state = TwoPhotonState.bell(noise)
            es = [analytic_E(state, t1, t2) for t1, t2 in CHSH_ANGLES]
            assert chsh_s(*es) == pytest.approx(2 * math.sqrt(2) * noise, abs=1e-12)

    def test_scale_invariance(self, rng):
        bins = rng.integers(1, 100, 16)
        def s_of(scale):
            counts = [CorrelationCounts(*(bins[4 * p + v] * scale for v in range(4)))
                      for p in range(4)]
            return chsh_s(*(correlation_E(c) for c in counts))
        assert s_of(1) == pytest.approx(s_of(7), abs=1e-12)


class TestG2:
    def test_zero_coincidences(self):
        assert g2_cross(1000, 1000, 0, 10**12, WINDOW) == 0.0

    def test_zero_singles_error(self):
        with pytest.raises(InsufficientDataError):
            g2_cross(0, 1000, 5, 10**12, WINDOW)

    def test_independent_channels_give_unity(self):
        # n_coinc at the accidental expectation 2*tau*Ra*Rb*T
        duration = 10**13
        n_a = n_b = 10**5
        ra = n_a / (duration * 1e-12)
        n_acc = 2 * 1e-9 * ra * ra * (duration * 1e-12)
        assert g2_cross(n_a, n_b, round(n_acc), duration, WINDOW) == pytest.approx(1.0, rel=0.01)

    def test_correlated_source_far_above_classical(self):
        cc, _, cfg, stream = cert_sim(BELL, pair_rate=10**5, duration=2 * 10**12, seed=9)
        c1, c2 = stream.channel_times(Channel.C1), stream.channel_times(Channel.C2)
        g2 = g2_cross(c1.size, c2.size, len(cc), cfg.duration, WINDOW)
        assert g2 > 100  # >> 2: nonclassical


class TestLiveCertify:
    def test_bell_blocks_certified(self):
        cc, sched, cfg, stream = cert_sim(BELL, duration=3 * 10**12)
        blocks, *_ = certify_run(
            cc, sched, 50_000, duration=cfg.duration, stream=stream
        )
        assert len(blocks) >= 2
        assert blocks[-1].t_end == cfg.duration
        assert blocks[0].t_start == 0
        for blk in blocks:
            assert blk.verdict is Verdict.CERTIFIED_BELL
            assert blk.s == pytest.approx(2 * math.sqrt(2), abs=0.05)
            assert blk.g2 > 2
        assert run_verdict(blocks) is Verdict.CERTIFIED_BELL

    def test_low_noise_state_falls_back_to_g2(self):
        cc, sched, cfg, stream = cert_sim(
            TwoPhotonState.bell(0.6), duration=3 * 10**12, seed=17
        )
        blocks, *_ = certify_run(
            cc, sched, 50_000, duration=cfg.duration, stream=stream
        )
        for blk in blocks:
            assert blk.s == pytest.approx(2 * math.sqrt(2) * 0.6, abs=0.05)
            assert blk.verdict is Verdict.CERTIFIED_G2
        assert run_verdict(blocks) is Verdict.CERTIFIED_G2

    def test_empty_stream_single_uncertified_block(self):
        blocks, *_ = certify_run(
            CoincidenceList.empty(),
            AnalyzerSchedule.chsh(dwell=10**6),
            10_000,
            duration=10**10,
        )
        assert len(blocks) == 1
        blk = blocks[0]
        assert (blk.t_start, blk.t_end) == (0, 10**10)
        assert blk.verdict is Verdict.UNCERTIFIED
        assert math.isnan(blk.s)

    def test_non_chsh_schedule_uncertified(self):
        cc, _, cfg, stream = cert_sim(BELL, duration=10**12)
        fringe = AnalyzerSchedule.fringe(45.0, dwell=10**7)
        blocks, *_ = certify_run(
            cc, fringe, 50_000, duration=cfg.duration, stream=stream
        )
        assert all(b.verdict is Verdict.UNCERTIFIED for b in blocks)
        assert all(math.isnan(b.s) and math.isnan(b.g2) for b in blocks)

    def test_block_smaller_than_cycle_uncertified(self):
        # dwell so long that one block never sees a full 16-setting cycle
        cc, _, cfg, stream = cert_sim(BELL, duration=10**12, dwell=10**12)
        long_sched = AnalyzerSchedule.chsh(dwell=10**12)
        blocks, *_ = certify_run(
            cc, long_sched, 50_000, duration=cfg.duration, stream=stream
        )
        assert all(b.verdict is Verdict.UNCERTIFIED for b in blocks)

    @pytest.mark.parametrize("chunk", [7, 1 << 20])
    def test_g2_singles_at_block_edges_and_duration(self, rng, monkeypatch, chunk):
        # a hand-built stream with C1 and C2 tags exactly at the inner block
        # edge and at t == duration: a block counts the singles of
        # [t_start, t_end), the run counts every C tag; the channel codes are
        # compared in chunks of `chunk` tags
        monkeypatch.setattr(certify, "_COUNT_CHUNK", chunk)
        duration = 10**9
        times = np.sort(rng.integers(0, duration, 9000))
        cc = CoincidenceList(times, np.zeros(times.size, np.int64))
        edge = int(times[4500])
        at_edges = np.repeat([edge, duration], [40, 25])
        ts = np.concatenate([rng.integers(0, duration, 30_000), at_edges, at_edges])
        ch = np.concatenate([rng.integers(0, 6, 30_000), np.full(at_edges.size, Channel.C1),
                             np.full(at_edges.size, Channel.C2)])
        order = np.argsort(ts, kind="stable")
        stream = TagStream(ts[order], ch[order], duration)
        blocks, g2_run, _ = certify_run(cc, AnalyzerSchedule.chsh(dwell=10**6), 4500,
                                     duration=duration, window=WINDOW, stream=stream)
        assert [(b.t_start, b.t_end) for b in blocks] == [(0, edge), (edge, duration)]
        c1, c2 = stream.channel_times(Channel.C1), stream.channel_times(Channel.C2)
        for blk in blocks:
            n_a = int(np.searchsorted(c1, blk.t_end) - np.searchsorted(c1, blk.t_start))
            n_b = int(np.searchsorted(c2, blk.t_end) - np.searchsorted(c2, blk.t_start))
            assert blk.g2 == (blk.n_cert_events * (blk.t_end - blk.t_start)
                              / (n_a * n_b * 2.0 * WINDOW.window_tau))
        assert g2_run == times.size * duration / (c1.size * c2.size * 2.0 * WINDOW.window_tau)

    def test_minimum_block_size_enforced(self):
        with pytest.raises(ValueError, match="4000"):
            certify_run(
                CoincidenceList.empty(),
                AnalyzerSchedule.chsh(dwell=10**6),
                100,
                duration=10**9,
            )

    def test_three_sigma_margin_blocks_marginal_violation(self, rng):
        # S slightly above 2 but within 3 sigma of it: not Bell-certified
        sched = AnalyzerSchedule.chsh(dwell=10**6)
        state = TwoPhotonState.bell(0.72)  # S_ideal = 2.036
        times = np.sort(rng.integers(0, 16 * 10**6, 4500).astype(np.int64))
        idx = sched.setting_index_at(times)
        # sample outcomes per scheduled setting from exact probabilities
        keep = np.zeros(times.size, bool)
        for k, (t1, t2) in enumerate(sched.settings):
            sel = idx == k
            p = joint_outcome_probs(state, t1, t2)[0]
            keep[sel] = rng.random(int(sel.sum())) < p * 4  # scale to keep stats
        cc = CoincidenceList(times[keep], np.zeros(int(keep.sum()), np.int64))
        blocks, *_ = certify_run(cc, sched, 4000, duration=16 * 10**6)
        for blk in blocks:
            if not math.isnan(blk.s) and blk.s - 3 * blk.s_stderr <= 2.0:
                assert blk.verdict is not Verdict.CERTIFIED_BELL

    def test_verdict_inheritance_by_timestamp(self):
        from qrng_forge.certify import CertBlock

        blocks = [
            CertBlock(0, 100, 2.8, 0.01, {}, 5.0, 10, Verdict.CERTIFIED_BELL),
            CertBlock(100, 200, 1.5, 0.01, {}, 5.0, 10, Verdict.CERTIFIED_G2),
            CertBlock(200, 300, 1.0, 0.01, {}, 1.0, 10, Verdict.UNCERTIFIED),
        ]
        verdicts = verdicts_for_times(blocks, [0, 50, 99, 100, 199, 250, 300])
        assert verdicts == [
            Verdict.CERTIFIED_BELL,
            Verdict.CERTIFIED_BELL,
            Verdict.CERTIFIED_BELL,
            Verdict.CERTIFIED_G2,
            Verdict.CERTIFIED_G2,
            Verdict.UNCERTIFIED,
            Verdict.UNCERTIFIED,
        ]
        assert run_verdict(blocks) is Verdict.UNCERTIFIED


class TestChshMeasurement:
    def test_requires_canonical_schedule(self):
        with pytest.raises(ValueError):
            chsh_measurement(CoincidenceList.empty(), AnalyzerSchedule.fringe(45.0))

    def test_structure_recognizer(self):
        assert chsh_structure(AnalyzerSchedule.chsh())
        assert not chsh_structure(AnalyzerSchedule.fringe(0.0))
        # permuted variants break the canonical layout
        sched = AnalyzerSchedule.chsh()
        scrambled = AnalyzerSchedule(sched.settings[::-1], sched.dwell)
        assert not chsh_structure(scrambled)

    @pytest.mark.parametrize("offset, recognized", [(5e-10, True), (1e-8, False)])
    def test_structure_tolerance(self, offset, recognized):
        # one angle moved, in either analyzer of any setting: within 1e-9
        # degrees of the canonical cycle it still counts, 1e-8 off it does not
        settings = AnalyzerSchedule.chsh(10.0, 55.0, 77.5, 32.5).settings
        for k in range(16):
            for side in (0, 1):
                moved = [list(setting) for setting in settings]
                moved[k][side] += offset
                schedule = AnalyzerSchedule(tuple(map(tuple, moved)), 10**9)
                assert chsh_structure(schedule) is recognized, (k, side)

    def test_simulated_bell_value(self):
        cc, sched, *_ = cert_sim(BELL, duration=3 * 10**12)
        result = chsh_measurement(cc, sched)
        assert result.s == pytest.approx(2 * math.sqrt(2), abs=0.02)
        assert result.s_stderr < 0.01


class TestRunReport:
    """``certification_report``'s run-level values come from the sum of the
    blocks' counts per setting; a pass over the whole record is their
    oracle."""

    @pytest.mark.parametrize("dwell, block", [(10**7, 50_000), (10**10, 4000)])
    def test_chsh_equals_whole_record(self, dwell, block):
        # at dwell 1e10 ps every block is shorter than a cycle, so no block
        # has an S, and the run's still counts every block's events
        cc, sched, cfg, stream = cert_sim(BELL, duration=10**12, dwell=dwell)
        blocks, report = certification_report(cc, sched, block, WINDOW, stream)
        assert (dwell == 10**10) == all(math.isnan(b.s) for b in blocks)
        want = chsh_measurement(cc, sched)
        assert report["S_run"] == want.s
        assert report["S_run_stderr"] == want.s_stderr
        assert report["E_values"] == list(want.e_values)
        assert report["visibility"] == {"bell_equivalent": want.s / certify.SQRT8}

    def test_fringe_equals_whole_record(self):
        sched = AnalyzerSchedule.fringe(45.0, dwell=10**7)
        cfg = SourceConfig(pump_power=1.0, pair_rate_coeff=6 * 10**5, state=BELL,
                           analyzer_schedule=sched, duration=10**12 + 3 * 10**6, rng_seed=5,
                           jitter_sigma=0.0)
        stream = generate_events(cfg)
        cc = find_coincidences(stream.channel_times(Channel.C1),
                               stream.channel_times(Channel.C2), WINDOW)
        _, report = certification_report(cc, sched, 50_000, WINDOW, stream)
        fit = visibility(fringe_counts(cc, sched, cfg.duration))
        assert report["visibility"] == {"fit": fit.v, "raw": fit.v_raw, "phase_deg": fit.phase_deg}

    def test_zero_coincidences_have_no_s(self):
        stream = TagStream(np.empty(0, np.int64), np.empty(0, np.uint8), 10**10)
        _, report = certification_report(CoincidenceList.empty(), AnalyzerSchedule.chsh(dwell=10**6),
                                         10_000, WINDOW, stream)
        assert report["S_run"] is None
        assert "S_run_stderr" not in report and "E_values" not in report

    @pytest.mark.parametrize("schedule", [AnalyzerSchedule.chsh(dwell=10**6),
                                          AnalyzerSchedule.fringe(45.0, dwell=10**6)],
                             ids=["chsh", "fringe"])
    def test_memory_stays_within_a_block(self, rng, schedule):
        # 1 M coincidences in blocks of 100,000: the run's counts come from
        # the blocks, so no temporary grows with the record (8 MiB of times)
        n, duration = 10**6, 10**12
        times = np.sort(rng.integers(0, duration, n))
        cc = CoincidenceList(times, np.zeros(n, np.int64))
        stream = TagStream(np.repeat(times, 2), np.tile([Channel.C1, Channel.C2], n), duration)
        tracemalloc.start()
        try:
            _, report = certification_report(cc, schedule, 100_000, WINDOW, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["n_cert_events"] == n
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
