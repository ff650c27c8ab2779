import hashlib
import itertools
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
    accidental_rate,
    assign_bits,
    find_coincidences,
    generate_events,
)
from qrng_forge import _native
from qrng_forge.pipeline import _coincide, build_config

from conftest import optimal_nearest_matching

TAU = CoincidenceConfig(1000)


def match_times(ta, tb, cfg=TAU):
    return find_coincidences(np.asarray(ta, np.int64), np.asarray(tb, np.int64), cfg)


class TestWindowSemantics:
    def test_within_window_delta(self):
        out = match_times([1000], [1800])
        assert out.deltas.tolist() == [800]
        assert out.times.tolist() == [1000]

    def test_outside_window_empty(self):
        assert len(match_times([1000], [2500])) == 0

    def test_boundary_inclusive(self):
        assert len(match_times([0], [1000])) == 1  # |dt| == tau counts

    def test_nearest_partner_preferred(self):
        out = match_times([0, 900], [1000])
        assert out.times.tolist() == [900]
        assert out.deltas.tolist() == [100]

    def test_negative_delta(self):
        out = match_times([1800], [1000])
        assert out.deltas.tolist() == [-800]
        assert out.times.tolist() == [1000]

    def test_tie_leaves_last_a_tag_unmatched(self):
        out = match_times([0, 2000], [1000])
        assert out.times.tolist() == [0]
        assert out.deltas.tolist() == [1000]

    def test_tie_leaves_last_b_tag_unmatched(self):
        out = match_times([1000], [0, 2000])
        assert out.times.tolist() == [0]
        assert out.deltas.tolist() == [-1000]


class TestGreedyVersusOracle:
    def test_exact_on_all_instances_up_to_three_tags(self):
        grid = [0, 400, 800, 1100, 1900, 2600]
        cases = 0
        for na in range(0, 4):
            for nb in range(0, 4 - na):
                for ta in itertools.combinations(grid, na):
                    for tb in itertools.combinations(grid, nb):
                        got = match_times(list(ta), list(tb))
                        opt_count, opt_cost = optimal_nearest_matching(ta, tb, 1000)
                        assert len(got) == opt_count, (ta, tb)
                        assert sum(abs(int(d)) for d in got.deltas) == opt_cost, (ta, tb)
                        cases += 1
        assert cases > 100

    def test_near_optimal_on_random_instances(self, rng):
        # Mean tag spacing 6*tau: about 100x denser than the hardware
        # regime (singles ~1e6/s at tau = 1 ns means spacing ~600*tau), so
        # multi-tag pileups are common. The matcher is exact: on every
        # instance it finds the oracle's count and total |delta|.
        total_opt = 0
        for _ in range(10_000):
            na = int(rng.integers(0, 7))
            nb = int(rng.integers(0, 7))
            span = (na + nb + 1) * 6000
            ta = np.sort(rng.integers(0, span, na))
            tb = np.sort(rng.integers(0, span, nb))
            got = match_times(ta, tb)
            opt, opt_cost = optimal_nearest_matching(ta.tolist(), tb.tolist(), 1000)
            assert len(got) == opt, (ta, tb)
            assert int(np.abs(got.deltas).sum()) == opt_cost, (ta, tb)
            total_opt += opt
        assert total_opt > 2000


class TestMatcherProperties:
    def test_stable_under_concatenation_at_quiet_cut(self, rng):
        # two bursts separated by far more than tau
        burst1_a = np.sort(rng.integers(0, 50_000, 200))
        burst1_b = np.sort(rng.integers(0, 50_000, 200))
        offset = 50_000 + 10_000  # cut at >= tau from any tag
        burst2_a = np.sort(rng.integers(offset, offset + 50_000, 200))
        burst2_b = np.sort(rng.integers(offset, offset + 50_000, 200))
        whole = match_times(
            np.concatenate([burst1_a, burst2_a]), np.concatenate([burst1_b, burst2_b])
        )
        parts = [match_times(burst1_a, burst1_b), match_times(burst2_a, burst2_b)]
        assert len(whole) == sum(len(part) for part in parts)
        # the halves, joined, are the whole matching, pair for pair
        for name in ("times", "deltas"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(getattr(whole, name), joined), name

    def test_no_tag_used_twice(self, rng):
        ta = np.unique(rng.integers(0, 10**6, 3000))
        tb = np.unique(rng.integers(0, 10**6, 3000))
        out = match_times(ta, tb)
        used_a = np.where(out.deltas >= 0, out.times, out.times - out.deltas)
        used_b = used_a + out.deltas
        assert np.unique(used_a).size == used_a.size
        assert np.unique(used_b).size == used_b.size

    @pytest.mark.skipif(shutil.which("gcc") is None,
                        reason="the full-table reference needs a 30,000 x 30,000 table")
    def test_one_dense_cluster(self):
        # 60,000 tags closer than tau form one cluster; the matcher's memory
        # stays linear in its size
        ta = np.arange(30_000, dtype=np.int64) * 700
        out = match_times(ta, ta + 300)
        assert len(out) == 30_000
        assert np.all(out.deltas == 300)

    def test_output_sorted(self, rng):
        ta = np.sort(rng.integers(0, 10**6, 2000))
        tb = np.sort(rng.integers(0, 10**6, 2000))
        out = match_times(ta, tb)
        assert np.all(np.diff(out.times) >= 0)


class TestCountMatrix:
    """Coincidence counts of channel pairs."""

    def test_balanced_source_symmetric_counts(self):
        cfg = SourceConfig(
            pump_power=1.0,
            pair_rate_coeff=10**6,
            state=TwoPhotonState.bell(),
            analyzer_schedule=AnalyzerSchedule.chsh(dwell=10**7),
            duration=5 * 10**11,
            rng_seed=3,
            jitter_sigma=0.0,
        )
        stream = generate_events(cfg)

        def count(ch_a, ch_b):
            return len(find_coincidences(stream.channel_times(ch_a), stream.channel_times(ch_b), TAU))

        n1 = count(Channel.U1, Channel.D2)
        n2 = count(Channel.U2, Channel.D1)
        n_pairs = cfg.expected_pairs()
        sigma_diff = math.sqrt(2 * n_pairs * (1 / 3) * (2 / 3))
        assert abs(n1 - n2) < 4 * sigma_diff
        # a maximum matching's size does not depend on which side is a
        assert (n1, n2) == (count(Channel.D2, Channel.U1), count(Channel.D1, Channel.U2))


class TestAccidentals:
    def test_zero_rate(self):
        assert accidental_rate(0.0, 10**5, TAU) == 0.0

    def test_formula_value(self):
        # 2 * 1e-9 s * 1e5 Hz * 1e5 Hz = 20 Hz
        assert accidental_rate(10**5, 10**5, TAU) == pytest.approx(20.0)

    def test_monte_carlo_independent_channels(self):
        duration = 60 * 10**12  # 60 s
        cfg = SourceConfig(
            pump_power=1.0,
            pair_rate_coeff=0.0,
            state=TwoPhotonState.bell(),
            analyzer_schedule=AnalyzerSchedule.chsh(dwell=10**9),
            duration=duration,
            rng_seed=8,
            dark_rate={Channel.U1: 10**5, Channel.D2: 10**5},
            jitter_sigma=0.0,
        )
        stream = generate_events(cfg)
        found = find_coincidences(
            stream.channel_times(Channel.U1), stream.channel_times(Channel.D2), TAU
        )
        measured_hz = len(found) / (duration * 1e-12)
        assert measured_hz == pytest.approx(20.0, rel=0.05)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            accidental_rate(-1.0, 5.0, TAU)


class TestAssignBits:
    # the pipeline passes the (D1, U2) coincidence times first, then (D2, U1)
    def test_d1_u2_is_zero(self):
        assert assign_bits([100], []).tolist() == [0]

    def test_d2_u1_is_one(self):
        assert assign_bits([], [100]).tolist() == [1]

    def test_one_side_empty(self):
        assert assign_bits([10, 20, 30], []).tolist() == [0, 0, 0]
        assert assign_bits([], [10, 20]).tolist() == [1, 1]
        assert assign_bits(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0

    def test_chronological_with_zero_pair_first_on_ties(self):
        assert assign_bits([100, 500], [500]).tolist() == [0, 0, 1]
        assert assign_bits([500], [100, 500]).tolist() == [1, 0, 1]
        out = assign_bits(np.array([10, 30, 50]), np.array([20, 40]))
        assert out.dtype == np.uint8 and out.tolist() == [0, 1, 0, 1, 0]


class TestSortedInput:
    """The cluster scan needs each side in time order; neither backend
    can give a correct matching otherwise, so both reject it."""

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_decreasing_input_rejected(self, backend, monkeypatch):
        if backend == "c" and shutil.which("gcc") is None:
            pytest.skip("no C compiler")
        if backend == "python":
            monkeypatch.setattr(_native, "library", lambda: None)
        with pytest.raises(ValueError, match="sorted"):
            find_coincidences([5000, 0], [100, 4900], TAU)
        with pytest.raises(ValueError, match="sorted"):
            find_coincidences([100, 4900], [5000, 0], TAU)
        with pytest.raises(ValueError, match="sorted"):  # 2^64 - 1 apart, descending
            find_coincidences([100], [2**63 - 1, -(2**63)], TAU)
        # equal timestamps are in order
        assert len(find_coincidences([0, 0, 5000], [100, 4900], TAU)) == 2


class TestGoldenMatching:
    """Digests of what the matcher writes on a pileup-dense stream. The
    maximum-pair, least-|delta| policy and its tie rule fix them, so any
    implementation of the matcher must reproduce them."""

    def test_pileup_stream_digests(self, tmp_path):
        self.check_digests(tmp_path)

    def test_pileup_stream_digests_numpy_backend(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_native, "library", lambda: None)
        self.check_digests(tmp_path)

    @staticmethod
    def check_digests(tmp_path):
        cfg = build_config({
            "source.pair_rate_coeff": 10**7, "source.pump_power": 1.0,
            "source.duration_s": 0.005, "source.jitter_sigma": 350.0,
            "source.dark_rate": 10**5, "source.det_efficiency": 0.8,
            "source.dead_time": 0, "schedule.dwell": 10**7,
            "coincidence.window_tau": 2000, "source.rng_seed": 7,
        })
        found, _ = _coincide(cfg, generate_events(cfg.source), tmp_path)
        bits, cert = found.bits, found.bell
        assert (len(bits), len(cert)) == (21586, 2787)
        assert hashlib.sha256((tmp_path / "raw.bits").read_bytes()).hexdigest() == (
            "e6e648f4371b82f21dbe640aad570c34532722fd7b29dbcf69775b777cfa58cf")
        assert hashlib.sha256(cert.times.tobytes()).hexdigest() == (
            "6152c36b6a8d81bbded902364bdf21b32f58d60a7e321061086714c9253d5a48")
