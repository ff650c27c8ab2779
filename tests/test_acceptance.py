"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them inline). Tolerances are fixed here and nowhere else.

These run the real pipeline at desk scale with pinned seeds; expected
values come from analytic oracles (projection probabilities, binomial /
Poisson statistics, the leftover-hash budget) rather than from the code
under test.
"""

import math
import time

import numpy as np
import pytest

from qrng_forge import (
    AnalyzerSchedule,
    BitSequence,
    Channel,
    CoincidenceConfig,
    ExtractorParams,
    SourceConfig,
    TwoPhotonState,
    Verdict,
    autocorr,
    chsh_measurement,
    extract_stream,
    find_coincidences,
    fringe_counts,
    g2_cross,
    generate_events,
    min_entropy,
    output_length,
    proportion_range,
    run_battery,
    toeplitz_extract,
    visibility,
)
from qrng_forge.coincidence import assign_bits
from qrng_forge.pipeline import build_config, rerun_from_manifest, run_pipeline
from qrng_forge.randtests import frequency_test

from conftest import naive_toeplitz

WINDOW = CoincidenceConfig(1000)
S_IDEAL = 2.0 * math.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def bell_source(pair_rate, duration_s, seed, state=None, schedule=None, **kwargs):
    return SourceConfig(
        pump_power=1.0,
        pair_rate_coeff=pair_rate,
        state=state or TwoPhotonState.bell(),
        analyzer_schedule=schedule or AnalyzerSchedule.chsh(dwell=10**7),
        duration=int(duration_s * 1e12),
        rng_seed=seed,
        jitter_sigma=kwargs.pop("jitter_sigma", 0.0),
        **kwargs,
    )


def cert_coincidences(stream, window=WINDOW):
    c1 = stream.channel_times(Channel.C1)
    c2 = stream.channel_times(Channel.C2)
    cc = find_coincidences(c1, c2, window)
    return cc, c1, c2


@pytest.fixture(scope="module")
def balanced_bits():
    """~1e7 raw bits from a balanced noise-free source, plus extraction."""
    cfg = bell_source(3 * 10**6, 5.02, seed=606, det_efficiency={
        Channel.U1: 1.0, Channel.U2: 1.0, Channel.D1: 1.0, Channel.D2: 1.0,
        Channel.C1: 1e-6, Channel.C2: 1e-6,
    })
    stream = generate_events(cfg)
    times = {ch: stream.channel_times(ch) for ch in Channel}
    c01 = find_coincidences(times[Channel.D1], times[Channel.U2], WINDOW)
    c10 = find_coincidences(times[Channel.D2], times[Channel.U1], WINDOW)
    bits = assign_bits(c01.times, c10.times)[: 10**7].copy()
    assert bits.size == 10**7
    extracted, ext_report, _ = extract_stream(
        BitSequence.from_bits(bits), n_block=10**6,
        seed_source=np.random.default_rng(606).bytes(2 * 10**6 // 8),
        acquisition_seconds=5.02,
    )
    return bits, extracted, ext_report


def test_criterion_01_chsh_ideal_bell():
    t0 = time.perf_counter()
    # 20.1 s puts the expected C1/C2 count (5e4 Hz x duration) about 5.5
    # sigma above the 1e6 bound; at exactly 20 s it would sit on the bound.
    cfg = bell_source(6 * 10**5, 20.1, seed=101)
    stream = generate_events(cfg)
    cc, _, _ = cert_coincidences(stream)
    result = chsh_measurement(cc, cfg.analyzer_schedule)
    elapsed = time.perf_counter() - t0
    ok = len(cc) >= 10**6 and abs(result.s - S_IDEAL) <= 0.01 and elapsed < 60.0
    report(
        1,
        ok,
        f"|S| = {result.s:.4f} (target 2.8284 +/- 0.01) from {len(cc)} cert "
        f"coincidences in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_chsh_product_state():
    cfg = bell_source(6 * 10**5, 10.0, seed=202, state=TwoPhotonState(1.0, 0.0))
    stream = generate_events(cfg)
    cc, _, _ = cert_coincidences(stream)
    result = chsh_measurement(cc, cfg.analyzer_schedule)
    ok = abs(result.s - math.sqrt(2.0)) <= 0.02
    report(2, ok, f"|HH> gives |S| = {result.s:.4f} (target 1.4142 +/- 0.02)")


def test_criterion_03_noise_linearity():
    details = []
    ok = True
    for i, noise in enumerate((0.6, 0.73, 0.95)):
        state = TwoPhotonState.bell(noise)
        cfg = bell_source(6 * 10**5, 8.0, seed=310 + i, state=state)
        cc, _, _ = cert_coincidences(generate_events(cfg))
        s = chsh_measurement(cc, cfg.analyzer_schedule).s
        fringe_sched = AnalyzerSchedule.fringe(45.0, steps=16, dwell=10**7)
        fringe_cfg = bell_source(
            6 * 10**5, 4.0, seed=350 + i, state=state, schedule=fringe_sched
        )
        f_cc, _, _ = cert_coincidences(generate_events(fringe_cfg))
        vis = visibility(
            fringe_counts(f_cc, fringe_sched, fringe_cfg.duration)
        ).v
        s_ok = abs(s - S_IDEAL * noise) <= 0.03
        v_ok = abs(vis - noise) <= 0.02
        ok = ok and s_ok and v_ok
        details.append(f"p={noise}: S={s:.3f} (2sqrt2*p={S_IDEAL * noise:.3f}), V={vis:.3f}")
    report(3, ok, "; ".join(details))


def test_criterion_04_window_degradation():
    cfg = bell_source(10**7, 1.5, seed=404, jitter_sigma=350.0)
    stream = generate_events(cfg)
    c1 = stream.channel_times(Channel.C1)
    c2 = stream.channel_times(Channel.C2)
    singles_rate = c1.size / (cfg.duration * 1e-12)
    s_values = []
    for tau in (1000, 1500, 2000):
        cc = find_coincidences(c1, c2, CoincidenceConfig(tau))
        s_values.append(chsh_measurement(cc, cfg.analyzer_schedule).s)
    ok = singles_rate >= 3 * 10**5 and s_values[0] > s_values[1] > s_values[2]
    report(
        4,
        ok,
        f"S strictly decreases over tau = 1, 1.5, 2 ns: "
        f"{', '.join(f'{s:.4f}' for s in s_values)} at {singles_rate:.2e} singles/s",
    )


def test_criterion_05_accidentals_and_g2():
    duration_s = 100.0
    cfg = bell_source(
        0.0, duration_s, seed=505,
        dark_rate={Channel.C1: 10**5, Channel.C2: 10**5},
    )
    stream = generate_events(cfg)
    cc, c1, c2 = cert_coincidences(stream)
    measured_hz = len(cc) / duration_s
    g2 = g2_cross(c1.size, c2.size, len(cc), cfg.duration, WINDOW)
    ok = abs(measured_hz - 20.0) <= 1.0 and abs(g2 - 1.0) <= 0.05
    report(
        5,
        ok,
        f"independent 1e5 Hz channels: {measured_hz:.2f} Hz coincidences "
        f"(20 +/- 5%), g2 = {g2:.3f} (1.00 +/- 0.05)",
    )


def test_criterion_06_raw_bit_quality(balanced_bits):
    bits, _, _ = balanced_bits
    n = bits.size
    p1 = bits.mean()
    bias_bound = 3.0 / (2.0 * math.sqrt(n))
    h = min_entropy(bits).h_min_per_bit
    ac = autocorr(bits, max_lag=100)
    ac_bound = 4.0 / math.sqrt(n)
    ok = abs(p1 - 0.5) <= bias_bound and h >= 0.97 and np.abs(ac).max() <= ac_bound
    report(
        6,
        ok,
        f"1e7 raw bits: |p1-0.5| = {abs(p1 - 0.5):.2e} (<= {bias_bound:.2e}), "
        f"H_min = {h:.4f} (>= 0.97), max |a_k| = {np.abs(ac).max():.2e} "
        f"(<= {ac_bound:.2e})",
    )


def test_criterion_07_toeplitz_correctness(rng):
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, n + 1))
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        params = ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed))
        if not np.array_equal(
            toeplitz_extract(x, params).to_bits(), naive_toeplitz(seed, x, m)
        ):
            mismatches += 1
    ratio = output_length(10**6, 0.99, 2.0**-50) / 10**6
    ok = mismatches == 0 and ratio >= 0.97
    report(
        7,
        ok,
        f"fast extractor bit-identical to naive oracle on 1000 instances "
        f"({mismatches} mismatches); ratio at h=0.99, n=1e6: {ratio:.4f} (>= 0.97)",
    )


def test_criterion_07b_postprocessed_rate_mirror():
    # 9e7 raw bits at measured h ~= 0.97 acquired in 46.4 s
    n = 9 * 10**7
    ones = round(n * 2.0**-0.97)
    bits = np.zeros(n, np.uint8)
    bits[:ones] = 1
    raw = BitSequence.from_bits(bits)
    h = min_entropy(raw).h_min_per_bit
    _, ext, _ = extract_stream(raw, n_block=10**6, acquisition_seconds=46.4)
    ok = 1.8 <= ext.mbps <= 1.9
    report(
        7,
        ok,
        f"9e7 raw bits at h = {h:.4f} in 46.4 s -> {ext.mbps:.3f} Mbps "
        f"post-processed (target 1.8-1.9)",
    )


def test_criterion_08_battery(balanced_bits):
    _, extracted, _ = balanced_bits
    battery = run_battery(extracted, n_sequences=20, seq_len=10**5, significance=0.01)
    lo, hi = battery.proportion_range
    prop_ok = all(lo <= p <= hi for p in battery.proportion.values())
    unif_ok = all(p >= 1e-4 for p in battery.uniformity_p.values())
    freq_p = frequency_test(np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], np.uint8))
    freq_ok = abs(freq_p - 0.5271) <= 1e-4
    ok = prop_ok and unif_ok and freq_ok and battery.passed
    report(
        8,
        ok,
        f"20 x 1e5 extracted bits pass all 8 tests (proportions in "
        f"({lo:.4f}, {hi:.4f}), min P_T = {min(battery.uniformity_p.values()):.2e}); "
        f"frequency worked example P = {freq_p:.6f}",
    )


def test_criterion_09_proportion_range_arithmetic():
    lo80, hi80 = proportion_range(80, 0.01)
    lo46, hi46 = proportion_range(46, 0.01)
    ok = (
        (round(lo80, 4), round(hi80, 4)) == (0.9566, 1.0234)
        and (round(lo46, 4), round(hi46, 4)) == (0.9460, 1.0340)
        and (round(lo80, 3), round(hi80, 3)) == (0.957, 1.023)
        and (round(lo46, 3), round(hi46, 3)) == (0.946, 1.034)
    )
    report(
        9,
        ok,
        f"(80, 0.01) -> ({lo80:.4f}, {hi80:.4f}); (46, 0.01) -> ({lo46:.4f}, {hi46:.4f})",
    )


def test_criterion_10_throughput(rng):
    # coincidence matching
    n = 5 * 10**6
    ta = np.sort(rng.integers(0, 5 * 10**12, n))
    tb = np.sort(rng.integers(0, 5 * 10**12, n))
    find_coincidences(ta[:100], tb[:100], WINDOW)  # build or load the C cluster scan
    t0 = time.perf_counter()
    find_coincidences(ta, tb, WINDOW)
    match_rate = 2 * n / (time.perf_counter() - t0)

    # Toeplitz extraction at n = 8192, one carry-less product per block
    n_block, h = 8192, 0.99
    m = output_length(n_block, h, 2.0**-50)
    seed = rng.integers(0, 2, n_block + m - 1, dtype=np.uint8)
    params = ExtractorParams(n_block, m, 2.0**-50, BitSequence.from_bits(seed))
    blocks = [rng.integers(0, 2, n_block, dtype=np.uint8) for _ in range(256)]
    toeplitz_extract(blocks[0], params)  # build or load the C kernel
    t0 = time.perf_counter()
    out_bits = sum(len(toeplitz_extract(b, params)) for b in blocks)
    extract_rate = out_bits / (time.perf_counter() - t0)

    ok = match_rate >= 10**7 and extract_rate >= 50 * 10**6
    report(
        10,
        ok,
        f"matching {match_rate / 1e6:.1f} M tags/s (>= 10); Toeplitz "
        f"{extract_rate / 1e6:.1f} Mbps out (>= 50)",
    )


def test_criterion_11_end_to_end_mirror(tmp_path):
    overrides = {
        "source.pair_rate_coeff": 3 * 10**6,
        "source.pump_power": 1.0,
        "source.duration_s": 4.5,  # targets 9e6 detected bit-pairs
        "source.rng_seed": 1111,
        "source.jitter_sigma": 100.0,
        "schedule.dwell": 10**7,
        "extractor.n_block": 10**6,
        "battery.n_sequences": 20,
        "battery.seq_len": 10**5,
    }
    cfg = build_config(overrides)
    result = run_pipeline(cfg, out_dir=tmp_path / "run")
    rates = result.manifest["rates"]
    cert = result.manifest["certification"]
    repeat = rerun_from_manifest(tmp_path / "run" / "manifest.json", tmp_path / "rerun")
    identical = repeat.manifest["digests"] == result.manifest["digests"]
    ok = (
        abs(rates["raw_bits"] - 9 * 10**6) < 0.02 * 9 * 10**6
        and rates["extracted_mbps"] > 0
        and isinstance(cert["S_run"], float)
        and rates["h_min"] >= 0.97
        and cert["verdict"] == Verdict.CERTIFIED_BELL.value
        and identical
    )
    report(
        11,
        ok,
        f"cmd_run: {rates['raw_bits']} raw bits @ {rates['raw_rate_hz'] / 1e6:.2f} MHz, "
        f"{rates['extracted_mbps']:.3f} Mbps extracted, S = {cert['S_run']:.4f}, "
        f"H_min = {rates['h_min']:.4f}, verdict {cert['verdict']}; "
        f"manifest re-run byte-identical: {identical}",
    )
