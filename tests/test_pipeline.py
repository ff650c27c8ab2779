import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qrng_forge import (
    _native,
    bell_coincidences,
    fringe_counts,
    generate_events,
    pipeline,
    source,
    timetags,
    visibility,
)
from qrng_forge.certify import Verdict
from qrng_forge.cli import main
from qrng_forge.pipeline import (
    CertificationRefused,
    ConfigError,
    StageError,
    build_config,
    load_config,
    parse_config_text,
    run_pipeline,
    rerun_from_manifest,
    sweep,
    sweep_csv,
)
from qrng_forge.timetags import BitSequence, Channel, encode_stream, read_bits, write_bits


def fast_overrides(**extra):
    base = {
        "source.pair_rate_coeff": 2 * 10**6,
        "source.pump_power": 1.0,
        "source.duration_s": 0.4,
        "source.rng_seed": 13,
        "source.jitter_sigma": 0.0,
        "schedule.dwell": 10**7,
        "extractor.n_block": 100_000,
        "battery.n_sequences": 4,
        "battery.seq_len": 50_000,
    }
    base.update(extra)
    return base


class TestConfigParsing:
    def test_comments_blanks_and_coercion(self):
        text = """
        # a comment
        source.pump_power = 3.5   # trailing comment
        source.rng_seed   = 42
        schedule.kind     = chsh

        extractor.seed_path =
        """
        values = parse_config_text(text)
        assert values["source.pump_power"] == 3.5
        assert values["source.rng_seed"] == 42
        assert values["schedule.kind"] == "chsh"
        assert values["extractor.seed_path"] == ""

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"source.nonsense": 1})

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            build_config({"source.alpha": 1.5})

    def test_hwp_theta_path(self):
        cfg = build_config({"source.hwp_theta": 22.5})
        assert cfg.source.state.alpha == pytest.approx(0.7071, abs=1e-4)

    def test_per_channel_efficiency(self):
        cfg = build_config(
            {"source.det_efficiency": 0.9, "source.det_efficiency.C1": 0.5}
        )
        eff = cfg.source.efficiency_array()
        assert eff[int(Channel.C1)] == 0.5
        assert eff[int(Channel.U1)] == 0.9

    def test_fringe_schedule_kind(self):
        cfg = build_config({"schedule.kind": "fringe", "schedule.steps": 12})
        assert len(cfg.source.analyzer_schedule.settings) == 12

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("source.pump_power = 2.0\nsource.rng_seed = 5\n")
        cfg = load_config(path, {"source.rng_seed": 9})
        assert cfg.source.pump_power == 2.0
        assert cfg.source.rng_seed == 9

    def test_duration_zero_clamps_to_minimum(self):
        cfg = build_config({"source.duration_ps": 0})
        assert cfg.source.duration == 1

    @pytest.mark.parametrize("key", [
        "source.rng_seed", "source.det_efficiency", "source.det_efficiency.C1"])
    def test_bool_is_not_a_number(self, key):
        # int(True) is 1 and float(True) 1.0, so a JSON true in a manifest
        # would run as 1 and be recorded as true
        with pytest.raises(ConfigError, match=f"^{key}: True is not a number"):
            build_config({key: True})


@pytest.fixture(scope="module")
def dark_only_dirs(tmp_path_factory):
    # dark counts only: accidental-level coincidences, S ~ 0, g2 ~ 1
    root = tmp_path_factory.mktemp("dark")
    argv = [
        "run",
        "--set", "source.pair_rate_coeff=0",
        "--set", "source.dark_rate=1000000",
        "--set", "source.duration_s=3.0",
        "--set", "source.rng_seed=2",
        "--set", "schedule.dwell=10000000",
        "--set", "extractor.n_block=8192",
        "--set", "certifier.block=4000",
    ]
    return root / "refused", root / "forced", argv


@pytest.fixture(scope="module")
def run_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_run")
    cfg = build_config(fast_overrides(output_dir=str(out)))
    return run_pipeline(cfg), out


#: Config keys whose non-finite values must be config errors, each with the
#: text its message names and any override it needs to take effect. A float
#: field of SourceConfig or AnalyzerSchedule is named by its check; an integer
#: key fails in its int() conversion.
NON_FINITE_KEYS = {
    "source.pump_power": ("pump_power", {}),
    "source.pair_rate_coeff": ("pair_rate_coeff", {}),
    "source.det_efficiency": ("det_efficiency", {}),
    "source.det_efficiency.C1": ("det_efficiency", {}),
    "source.dark_rate": ("dark_rate", {}),
    "source.dark_rate.D2": ("dark_rate", {}),
    "source.jitter_sigma": ("jitter_sigma", {}),
    "schedule.a": ("settings", {}),
    "schedule.a_prime": ("settings", {}),
    "schedule.b": ("settings", {}),
    "schedule.b_prime": ("settings", {}),
    "schedule.fixed": ("settings", {"schedule.kind": "fringe"}),
    "source.duration_s": ("integer", {}),
    "source.dead_time": ("integer", {}),
    "schedule.dwell": ("integer", {}),
}


class TestExitCodes:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(NON_FINITE_KEYS))
    def test_non_finite_value_exit_2(self, key, value, tmp_path, capsys):
        named, extra = NON_FINITE_KEYS[key]
        with pytest.raises(ConfigError, match=named):
            build_config({key: float(value), **extra})
        sets = [arg for k, v in {key: value, **extra}.items() for arg in ("--set", f"{k}={v}")]
        assert main(["simulate", *sets, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "tags.qtt").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("extractor.n_block", "-5", "extractor.n_block"),
        ("extractor.n_block", "0", "extractor.n_block"),
        ("extractor.epsilon_log2", "nan", "extractor.epsilon_log2"),
        ("extractor.epsilon_log2", "1", "extractor.epsilon_log2"),
        ("extractor.epsilon_log2", "-2000", "extractor.epsilon_log2"),
        ("battery.n_sequences", "0", "battery.n_sequences"),
        ("battery.seq_len", "-1", "battery.seq_len"),
        ("battery.significance", "nan", "battery.significance"),
        ("battery.significance", "1", "battery.significance"),
        ("battery.significance", "0", "battery.significance"),
    ])
    def test_bad_extractor_or_battery_value_exit_2(self, key, value, named, tmp_path, capsys):
        # checked at the config step, before anything is simulated or written
        with pytest.raises(ConfigError, match=named):
            build_config({key: float(value)})
        assert main(["run", "--set", f"{key}={value}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "tags.qtt").exists()

    @pytest.mark.parametrize("key, value", [
        ("source.duration_s", "-5"),
        ("source.duration_s", "-1e-13"),  # rounds to 0 ps, still negative
        ("source.duration_ps", "-1"),
        ("certifier.block", "100"),
        ("certifier.block", "3999"),
    ])
    def test_out_of_range_value_exit_2(self, key, value, tmp_path, capsys):
        # refused at the config step, before anything is simulated or written
        with pytest.raises(ConfigError, match=key):
            build_config({key: float(value)})
        assert main(["run", "--set", f"{key}={value}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be >= ")
        assert not (tmp_path / "tags.qtt").exists()

    @pytest.mark.parametrize("key, value", [
        ("source.dark_rate.C1", "abc"),
        ("source.det_efficiency.U2", "abc"),
        ("source.dark_rate", "abc"),
        ("schedule.dwell", "nan"),
        ("source.rng_seed", "abc"),
        ("source.duration_s", "abc"),
        ("extractor.epsilon_log2", "1e6"),
    ])
    def test_conversion_error_names_key(self, key, value, tmp_path, capsys):
        assert main(["simulate", "--set", f"{key}={value}", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: "), err

    @pytest.mark.parametrize("key, value, extra", [
        ("coincidence.window_tau", 1500.7, {}),
        ("certifier.block", 4000.9, {}),
        ("schedule.dwell", 1e9 + 0.5, {}),
        ("schedule.steps", 16.5, {"schedule.kind": "fringe"}),
        ("extractor.n_block", 8192.5, {}),
        ("battery.n_sequences", 20.5, {}),
        ("battery.seq_len", 50_000.5, {}),
        ("source.rng_seed", 7.5, {}),
        ("source.dead_time", 200.5, {}),
        ("source.duration_ps", 1e9 + 0.5, {}),
    ])
    def test_fractional_integer_value_exit_2(self, key, value, extra, tmp_path, capsys):
        # int() would drop the fraction; an integral float is still an integer
        with pytest.raises(ConfigError, match=f"{key}: .* is not an integer"):
            build_config({key: value, **extra})
        build_config({key: float(int(value)), **extra})
        sets = [arg for k, v in {key: value, **extra}.items() for arg in ("--set", f"{k}={v}")]
        out = tmp_path / "run"
        assert main(["run", *sets, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    def test_event_budget_exit_2(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="budget"):
            build_config({"source.pump_power": 1e12})
        assert main(["simulate", "--set", "source.pump_power=1e12", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("source.pump_power = -3\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_io_error_exit_3(self, tmp_path):
        code = main(
            ["coincide", "--tags", str(tmp_path / "missing.qtt"), "--out", str(tmp_path)]
        )
        assert code == 3

    def test_tags_past_declared_records_exit_3(self, tmp_path, capsys):
        path = tmp_path / "tags.qtt"
        path.write_bytes(encode_stream(timetags.TagStream([5, 6], [4, 5], 10)) + b"\0")
        assert main(["coincide", "--tags", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "i/o error: header declares 2 records, file holds 1 bytes past them")

    @pytest.mark.parametrize("command", ["extract", "test"])
    def test_too_short_input_exit_2(self, tmp_path, capsys, command):
        bits = tmp_path / "short.bits"
        write_bits(BitSequence.from_bits(np.random.default_rng(5).integers(0, 2, 5000)), bits)
        assert main([command, "--bits", str(bits), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sidecar", [
        "{}", '{"bits": null}', "[16]", '{"bits": 16.5}', '{"bits": true}', '{"bits": -1}',
    ])
    @pytest.mark.parametrize("command", ["export", "test", "extract"])
    def test_malformed_bit_sidecar_exit_2(self, tmp_path, capsys, command, sidecar):
        bits = tmp_path / "in.bits"
        bits.write_bytes(bytes(2))
        (tmp_path / "in.bits.json").write_text(sidecar)
        out = ["--out-file", str(tmp_path / "x")] if command == "export" else [
            "--out", str(tmp_path / "out")]
        assert main([command, "--bits", str(bits), *out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        with pytest.raises(ValueError, match="non-negative integer"):
            read_bits(bits)

    @pytest.mark.parametrize("extra", [
        ["--set", "no.such.key=1"], ["--seed", "14"], ["--config", "run.cfg"],
    ])
    def test_from_manifest_with_other_config_exit_2(self, run_result, tmp_path, capsys, extra):
        # the manifest fixes every key, so a second source of keys is refused
        # before anything runs
        _, out = run_result
        again = tmp_path / "again"
        argv = ["run", "--from-manifest", str(out / "manifest.json"), "--out", str(again)]
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr().err.startswith("config error: --from-manifest")
        assert not again.exists()

    @pytest.mark.parametrize("manifest", [
        {}, {"config": {}}, [], "text", {"config": [], "extractor_seed_file": "seed.bin"},
        {"config": {}, "extractor_seed_file": 5},
        {"config": {}, "extractor_seed_file": "seed.bin", "certification": []},
        # a string would force the rerun whatever it says
        {"config": {}, "extractor_seed_file": "seed.bin", "certification": {"forced": "no"}},
    ])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, manifest):
        # refused before the seed file is looked for or anything runs
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        again = tmp_path / "again"
        assert main(["run", "--from-manifest", str(path), "--out", str(again)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not again.exists()

    def test_manifest_without_its_seed_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": {}, "extractor_seed_file": "seed.bin"}))
        again = tmp_path / "again"
        assert main(["run", "--from-manifest", str(path), "--out", str(again)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not again.exists()

    def test_refusal_exit_4_and_force(self, tmp_path, dark_only_dirs):
        refused_dir, forced_dir, argv = dark_only_dirs
        assert main(argv + ["--out", str(refused_dir)]) == 4
        assert not (refused_dir / "extracted.bits").exists()
        assert main(argv + ["--force", "--out", str(forced_dir)]) == 0
        manifest = json.loads((forced_dir / "manifest.json").read_text())
        assert manifest["certification"]["verdict"] == "UNCERTIFIED"
        assert manifest["certification"]["forced"] is True
        assert (forced_dir / "extracted.bits").exists()


def test_summary_without_accidentals_is_strict_json(tmp_path, capsys):
    # no C1 or C2 tag: that pair expects no accidentals, so its CAR is null,
    # never Infinity, which no strict JSON parser reads
    ts = np.arange(0, 40_000, 500, dtype=np.int64)
    stream = timetags.TagStream(ts, np.arange(ts.size, dtype=np.uint8) % 4, 40_000)
    timetags.write_stream(stream, tmp_path / "tags.qtt")
    assert main(["coincide", "--tags", str(tmp_path / "tags.qtt"), "--out", str(tmp_path)]) == 0
    assert "C1-C2: 0 coincidences, accidental 0.00 Hz, CAR n/a" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    text = (tmp_path / "coincidence_summary.json").read_text()
    pairs = json.loads(text, parse_constant=reject)["pairs"]
    assert pairs["C1-C2"]["car"] is None
    assert all(isinstance(pairs[p]["car"], float) for p in ("U1-D2", "U2-D1"))


class TestRunAndManifest:
    def test_outputs_exist(self, run_result):
        result, out = run_result
        for name in (
            "tags.qtt",
            "raw.bits",
            "raw.bits.json",
            "cert_report.json",
            "extracted.bits",
            "ratio_report.json",
            "toeplitz_seed.bin",
            "battery_report.json",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    def test_summary_reports_key_metrics(self, run_result):
        result, _ = run_result
        for token in ("raw", "extracted", "S =", "H_min", "verdict"):
            assert token in result.summary

    def test_manifest_fields(self, run_result):
        result, out = run_result
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["certification"]["verdict"] == "CERTIFIED_BELL"
        assert manifest["rates"]["raw_rate_hz"] > 0
        assert manifest["rates"]["extracted_mbps"] > 0
        assert manifest["rates"]["h_min"] > 0.9
        assert set(manifest["digests"]) >= {"tags.qtt", "raw.bits", "extracted.bits"}

    def test_manifest_block_margins(self, run_result):
        # S - 3 sigma of each certification block, None where it has no S;
        # cert_report.json itself keeps its layout
        _, out = run_result
        manifest = json.loads((out / "manifest.json").read_text())
        blocks = json.loads((out / "cert_report.json").read_text())["blocks"]
        margins = manifest["certification"]["block_margins"]
        assert len(margins) == manifest["certification"]["n_blocks"] == len(blocks)
        for margin, block in zip(margins, blocks):
            assert "margin" not in block
            if block["S"] is None:
                assert margin is None
            else:
                assert margin == block["S"] - 3.0 * block["S_stderr"]
                assert (margin > 2.0) == (block["verdict"] == "CERTIFIED_BELL")

    def test_manifest_stage_telemetry(self, run_result):
        result, out = run_result
        manifest = json.loads((out / "manifest.json").read_text())
        stages = manifest["stages"]
        assert list(stages) == list(manifest["timing_s"])
        keys = {"items_in", "unit_in", "items_out", "unit_out", "rate_per_s", "peak_rss_mib"}
        extra = {"simulate": {"workers", "write_s", "write_wait_s"},
                 "coincide": {"workers", "multi_tag_clusters"},
                 "extract": {"workers"}}
        for name, row in stages.items():
            assert set(row) == keys | extra.get(name, set()), name
            assert row["rate_per_s"] == pytest.approx(row["items_in"] / manifest["timing_s"][name])
        peaks = [row["peak_rss_mib"] for row in stages.values()]
        assert peaks == sorted(peaks) and peaks[0] > 0  # peak memory so far never falls
        n_seq, seq_len = fast_overrides()["battery.n_sequences"], fast_overrides()["battery.seq_len"]
        assert stages["test"]["items_in"] == n_seq * seq_len and stages["test"]["unit_in"] == "bits"
        assert stages["test"]["items_out"] == n_seq and stages["test"]["unit_out"] == "sequences"
        assert stages["coincide"]["items_out"] == stages["extract"]["items_in"] == len(
            read_bits(out / "raw.bits"))
        assert stages["extract"]["items_out"] == len(read_bits(out / "extracted.bits"))
        # the threads that ran qf_simulate: one per CPU, at most one per chunk of slices
        workers = stages["simulate"]["workers"]
        assert workers == source.simulation_workers(build_config(fast_overrides()).source)
        n_chunks = -(-400 // source.CHUNK_SLICES)  # 0.4 s is 400 slices
        assert workers == (min(len(os.sched_getaffinity(0)), n_chunks) if _native.library() else 0)
        # qf_coincide runs as one call on the calling thread
        assert stages["coincide"]["workers"] == (1 if _native.library() else 0)
        # the threads that ran qf_toeplitz: one per CPU, at most one per block
        n_blocks = json.loads((out / "ratio_report.json").read_text())["blocks"]
        assert stages["extract"]["workers"] == (
            min(len(os.sched_getaffinity(0)), n_blocks) if _native.library() else 0)
        # the writer thread's own seconds, and how long the run waited for it
        assert stages["simulate"]["write_s"] > 0 and stages["simulate"]["write_wait_s"] >= 0
        multi = stages["coincide"]["multi_tag_clusters"]
        assert list(multi) == ["U1-D2", "U2-D1", "C1-C2"]
        assert all(isinstance(n, int) and n >= 0 for n in multi.values())

    def test_manifest_digests_are_file_sha256(self, run_result):
        # tags.qtt is hashed as it is written, the other files read back
        _, out = run_result
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["digests"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    def test_manifest_names_kernel_backend(self, run_result, tmp_path, monkeypatch):
        _, out = run_result
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kernel_backend"] == ("numpy" if _native.library() is None else "c")
        # the numpy backend's stream may change with numpy's version
        assert manifest["numpy"] == np.__version__
        monkeypatch.setattr(_native, "library", lambda: None)
        cfg = build_config(fast_overrides(**{
            "source.duration_s": 0.05,
            "extractor.n_block": 8192,
            "battery.n_sequences": 1,
            "battery.seq_len": 1000,
            "output_dir": str(tmp_path),
        }))
        fallback = run_pipeline(cfg, force=True)
        assert fallback.manifest["kernel_backend"] == "numpy"
        assert fallback.manifest["numpy"] == np.__version__

    def test_ratio_report_keys(self, run_result):
        _, out = run_result
        report = json.loads((out / "ratio_report.json").read_text())
        assert set(report) >= {"h_min", "n", "m", "ratio", "bits_out", "seconds", "mbps"}

    def test_raw_bits_file_readable(self, run_result):
        _, out = run_result
        bits = read_bits(out / "raw.bits")
        assert len(bits) > 10**5

    def test_rerun_from_manifest_byte_identical(self, run_result, tmp_path):
        result, out = run_result
        repeat = rerun_from_manifest(out / "manifest.json", tmp_path / "again")
        assert repeat.manifest["digests"] == result.manifest["digests"]

    def test_simulate_deterministic_across_calls(self, tmp_path):
        sets = [arg for k, v in fast_overrides(**{"source.duration_s": 0.05}).items()
                for arg in ("--set", f"{k}={v}")]
        for name in ("a", "b"):
            assert main(["simulate", *sets, "--out", str(tmp_path / name)]) == 0
        tags = (tmp_path / "a" / "tags.qtt").read_bytes()
        assert len(tags) > 24 and tags == (tmp_path / "b" / "tags.qtt").read_bytes()


class TestRecordedConfig:
    """A manifest's ``config`` is the run: the keys that took effect, its
    own directory and the seed file it read."""

    def test_overridden_keys_not_recorded(self, tmp_path):
        # source.hwp_theta sets the state in place of source.alpha, and
        # source.duration_ps the duration in place of source.duration_s
        out = tmp_path / "run"
        values = {**TestTagWriter.small, "source.hwp_theta": 10, "source.duration_ps": 5 * 10**10}
        sets = [arg for k, v in values.items() for arg in ("--set", f"{k}={v}")]
        assert main(["run", *sets, "--force", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "source.alpha" not in config and "source.duration_s" not in config
        assert config["source.hwp_theta"] == 10 and config["source.duration_ps"] == 5 * 10**10
        cfg = build_config(config)
        assert cfg.source.state == source.state_from_hwp(10.0, 1.0)
        assert cfg.source.duration == 5 * 10**10
        # a manifest recorded with the overridden keys builds the same run
        recorded = build_config({**config, "source.alpha": 0.5, "source.duration_s": 1.0})
        assert recorded.source == cfg.source and recorded.snapshot == config

    def test_rerun_names_its_dir_and_seed(self, run_result, tmp_path):
        # so the rerun's manifest re-runs in turn, to the same digests
        result, out = run_result
        again, third = tmp_path / "again", tmp_path / "third"
        argv = ["run", "--from-manifest", str(out / "manifest.json"), "--out", str(again)]
        assert main([*argv, "--force"]) == 0
        rerun_from_manifest(again / "manifest.json", third)
        for run_dir, seed_dir in ((again, out), (third, again)):
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["config"]["output_dir"] == str(run_dir)
            seed_file = (seed_dir / "toeplitz_seed.bin").resolve()
            assert manifest["config"]["extractor.seed_path"] == str(seed_file)
            assert manifest["digests"] == result.manifest["digests"]


class TestTagWriter:
    """``run`` writes tags.qtt on a thread of its own while the later stages
    run, and every exit of :func:`run_pipeline` waits for that thread."""

    small = fast_overrides(**{
        "source.duration_s": 0.05,
        "extractor.n_block": 8192,
        "battery.n_sequences": 1,
        "battery.seq_len": 1000,
    })

    @pytest.fixture
    def slow_writer(self, monkeypatch):
        # the writer outlasts the later stages, so a run that stops early
        # stops while the file is still being written
        records = timetags._records

        def slow(*args):
            time.sleep(0.3)
            return records(*args)

        monkeypatch.setattr(timetags, "_records", slow)

    def test_refused_run_leaves_complete_tags(self, tmp_path, slow_writer, monkeypatch):
        cfg = build_config({**self.small, "output_dir": str(tmp_path)})
        monkeypatch.setattr(pipeline, "run_verdict", lambda blocks: Verdict.UNCERTIFIED)
        with pytest.raises(CertificationRefused):
            run_pipeline(cfg)
        want = hashlib.sha256(encode_stream(source.generate_events(cfg.source))).hexdigest()
        assert hashlib.sha256((tmp_path / "tags.qtt").read_bytes()).hexdigest() == want

    def test_failed_stage_joins_writer(self, tmp_path, slow_writer, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("no extractor")

        monkeypatch.setattr(pipeline, "extract_stream", fail)
        before = set(threading.enumerate())
        with pytest.raises(StageError) as info:
            run_pipeline(build_config({**self.small, "output_dir": str(tmp_path)}), force=True)
        assert info.value.stage == "extract"
        assert set(threading.enumerate()) <= before  # no thread of the run outlives it
        assert not any(t.name.startswith("qrng_forge-tags") for t in threading.enumerate())

    def test_unwritable_tags_fail_simulate_stage(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "tags.qtt").mkdir()
        sets = [arg for k, v in self.small.items() for arg in ("--set", f"{k}={v}")]
        assert main(["run", "--out", str(tmp_path), *sets]) == 3  # an i/o error
        assert capsys.readouterr().err.startswith("error: stage 'simulate' failed:")
        # with a later stage failing too, that stage's error is the one raised

        def fail(*args, **kwargs):
            raise RuntimeError("no extractor")

        monkeypatch.setattr(pipeline, "extract_stream", fail)
        with pytest.raises(StageError) as info:
            run_pipeline(build_config({**self.small, "output_dir": str(tmp_path)}), force=True)
        assert info.value.stage == "extract"


class TestStageSubcommands:
    """The stage subcommands chained over files write what ``run`` writes."""

    @pytest.fixture(scope="class")
    def chain_and_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chain")
        seed_file = root / "seed.bin"
        seed_file.write_bytes(np.random.default_rng(7).bytes(2 * 100_000 // 8))
        values = fast_overrides(**{
            "source.duration_s": 0.2,
            "battery.n_sequences": 2,
            "battery.seq_len": 20_000,
            "extractor.seed_path": str(seed_file),
        })
        config = root / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        chain, ran = root / "chain", root / "run"
        common = ["--config", str(config), "--out", str(chain)]
        for argv in (
            ["simulate"],
            ["coincide", "--tags", str(chain / "tags.qtt")],
            ["certify", "--tags", str(chain / "tags.qtt")],
            ["extract", "--bits", str(chain / "raw.bits")],
            ["test", "--bits", str(chain / "extracted.bits")],
        ):
            assert main(argv + common) == 0, argv[0]
        assert main(["run", "--config", str(config), "--out", str(ran)]) == 0
        return chain, ran

    def test_artifacts_byte_equal(self, chain_and_run):
        chain, ran = chain_and_run
        for name in (
            "tags.qtt", "raw.bits", "coincidence_summary.json", "cert_report.json",
            "extracted.bits", "toeplitz_seed.bin", "battery_report.json",
        ):
            assert (chain / name).read_bytes() == (ran / name).read_bytes(), name

    def test_ratio_report_differs_only_in_rate(self, chain_and_run):
        chain, ran = chain_and_run
        staged = json.loads((chain / "ratio_report.json").read_text())
        full = json.loads((ran / "ratio_report.json").read_text())
        assert staged["seconds"] is None and staged["mbps"] is None
        assert full["seconds"] == pytest.approx(0.2) and full["mbps"] > 0
        for key in ("seconds", "mbps"):
            del staged[key], full[key]
        assert staged == full

    def test_summary_pair_counts_match_manifest(self, chain_and_run):
        chain, ran = chain_and_run
        summary = json.loads((chain / "coincidence_summary.json").read_text())
        manifest = json.loads((ran / "manifest.json").read_text())
        by_pair = {pair: row["coincidences"] for pair, row in summary["pairs"].items()}
        assert by_pair == manifest["rates"]["pair_counts"]
        assert summary["raw_bits"] == manifest["rates"]["raw_bits"]

    def test_channel_rates_are_coincide_singles(self, chain_and_run):
        # run's observed rates come from the tags per channel that coincide counts
        _, ran = chain_and_run
        singles = json.loads((ran / "coincidence_summary.json").read_text())["singles"]
        rates = json.loads((ran / "manifest.json").read_text())["rates"]["channel_rates_hz"]
        assert set(rates) == set(singles) == {ch.name for ch in Channel}
        for name, n in singles.items():
            assert rates[name]["observed_hz"] * 0.2 == pytest.approx(n, rel=1e-12), name


class TestSweep:
    def test_requires_two_values(self, tmp_path):
        cfg = build_config(fast_overrides(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="2 values"):
            sweep(cfg, "pump_power", [1.0])

    def test_unknown_parameter(self, tmp_path):
        cfg = build_config(fast_overrides(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="parameter"):
            sweep(cfg, "crystal_temperature", [1.0, 2.0])

    def test_alpha_sweep_records_failures_and_continues(self, tmp_path):
        cfg = build_config(
            fast_overrides(
                **{
                    "source.duration_s": 0.2,
                    "battery.n_sequences": 2,
                    "battery.seq_len": 20_000,
                    "output_dir": str(tmp_path / "sweep"),
                }
            )
        )
        rows = sweep(cfg, "alpha", [0.7071, 5.0])
        assert len(rows) == 2
        assert rows[0]["S"] == pytest.approx(2.83, abs=0.2)
        assert "V" in rows[0]
        assert rows[0]["g2"] > 2
        assert "error" in rows[1]  # alpha = 5 is invalid, recorded not raised
        point = tmp_path / "sweep" / "point_000"  # its manifest names its own directory
        assert json.loads((point / "manifest.json").read_text())["config"]["output_dir"] == str(point)
        csv_text = sweep_csv(rows)
        assert csv_text.splitlines()[0] == "value,S,V,g2,h_min,mbps,verdict,error"
        assert len(csv_text.splitlines()) == 3

    def test_v_is_the_certify_stage_fit(self, tmp_path):
        # each point's V is the fringe fit of its own fringe acquisition, the
        # diagonal-basis scan as long as the point's run
        cfg = build_config({**TestTagWriter.small, "output_dir": str(tmp_path / "sweep")})
        values = [1.0, 1.5]
        rows = sweep(cfg, "pump_power", values)
        for i, (value, row) in enumerate(zip(values, rows)):
            fringe = build_config({**cfg.snapshot, "source.pump_power": value,
                                   "output_dir": str(tmp_path / "sweep" / f"point_{i:03d}"),
                                   "schedule.kind": "fringe", "schedule.fixed": 45.0})
            schedule, duration = fringe.source.analyzer_schedule, fringe.source.duration
            coincs = bell_coincidences(generate_events(fringe.source), fringe.coincidence)
            assert "error" not in row
            assert row["V"] == visibility(fringe_counts(coincs, schedule, duration)).v

    def test_failed_fit_is_the_point_error(self, tmp_path):
        # four scan steps are too few for a fringe fit; the point's run
        # itself still succeeds
        cfg = build_config({**TestTagWriter.small, "schedule.steps": 4,
                            "output_dir": str(tmp_path / "sweep")})
        rows = sweep(cfg, "pump_power", [1.0, 1.5])
        for row in rows:
            assert row["error"] == "visibility needs at least 8 angle samples"
            assert "V" not in row and row["S"] is not None

    def test_alpha_sweep_refuses_a_hwp_theta_config(self, tmp_path):
        # source.hwp_theta sets the state in place of source.alpha, so each
        # point would run one state whatever its alpha: refused before any runs
        out = tmp_path / "sweep"
        sets = [f"{k}={v}" for k, v in fast_overrides(**{"source.hwp_theta": 22.5}).items()]
        argv = ["sweep", "--parameter", "alpha", "--values", "0.2,0.9", "--out", str(out)]
        assert main([*argv, *(a for kv in sets for a in ("--set", kv))]) == 2
        assert not out.exists()
        with pytest.raises(ConfigError, match="hwp_theta"):
            sweep(build_config(fast_overrides(**{"source.hwp_theta": 22.5}, output_dir=str(out))),
                  "alpha", [0.2, 0.9])
