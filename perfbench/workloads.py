"""The three workloads, each driven through ``qrng_forge.cli.main``.

One client, one batch job after another (closed loop), one process.
Every iteration gets its own seed derived from the run's ``--seed``, so
no input repeats inside a process, and the Toeplitz seed file the
extractor reads is derived from ``--seed`` too, so outputs are a pure
function of it.

* ``bell_run``: ``run`` on the criterion-11 shape, shortened to 1.6 s of
  acquisition, the least that fills the 20 x 1e5 battery. The full user
  path; matching dominates it, and pileups are rare (no dark counts,
  100 ps jitter).
* ``pileup_replay``: ``coincide`` then ``certify`` on a QTT1 file written
  during set-up from a 1e7 pairs/s stream with 350 ps jitter, 1e5/s dark
  counts, efficiency 0.8, no dead time, at the tau = 2 ns top of
  criterion 04's sweep. Exercises the read path, the 15-pair
  ``count_matrix`` scan and matcher pileups; no source or extraction in
  the timed loop.
* ``postprocess``: ``extract`` at n = 8192 (the byte-table path) then
  ``test`` with SP 800-22-length 1e6-bit sequences, on i.i.d. raw bits
  with p1 = 0.51. No simulation and no matching.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qrng_forge import cli as qcli
from qrng_forge.coincidence import CoincidenceConfig, find_coincidences
from qrng_forge.pipeline import load_config
from qrng_forge.source import expected_rates, generate_events
from qrng_forge.timetags import write_stream

import checks
from checks import require

#: Raw bits per acquisition second of the paper's run (9e7 bits in 46.4 s);
#: ``postprocess`` reports its raw-bit file as that much acquisition.
PAPER_RAW_RATE = 9e7 / 46.4

#: Matcher checks and cluster counts use the tags of the first 50 ms.
CHECK_WINDOW_PS = 5 * 10**10


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence([k & (2**64 - 1) for k in keys]).generate_state(1)[0])


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qcli.main([str(a) for a in argv])
    require(code == 0, f"qrng-forge {argv[0]} exited with code {code}")


def _write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def _check_section_matching(ts: np.ndarray, ch: np.ndarray, tau: int) -> float:
    """Matcher property checks on the window; returns the cluster share."""
    sel = ts < CHECK_WINDOW_PS
    ts, ch = ts[sel], ch[sel]
    pairs = [(ts[ch == a], ts[ch == b]) for a, b in checks.SECTION_PAIRS]
    for ta, tb in pairs:
        checks.check_matching(ta, tb, tau, find_coincidences(ta, tb, CoincidenceConfig(tau)))
    return checks.multi_tag_cluster_share(pairs, tau)


def _check_raw_count(cfg, raw_bits: int) -> None:
    src = cfg.source
    expected, allowed = checks.raw_bit_bound(
        expected_rates(src), src.duration * 1e-12, cfg.coincidence.window_tau, src.jitter_sigma
    )
    require(abs(raw_bits - expected) <= allowed,
            f"{raw_bits} raw bits, expected {expected:.0f} +/- {allowed:.0f}")


class Workload:
    """Set-up, timed iteration and output checks of one workload.

    ``config`` holds the timed runs' config keys; ``small`` the overrides
    for the warm-up, which runs the same path on a small input twice.
    """

    name = ""
    config: dict = {}
    small: dict = {}
    digest_files: tuple = ()
    seed_bytes = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.seed_file = work / "toeplitz_seed.src"
        if self.seed_bytes:
            rng = np.random.Generator(np.random.Philox(derive_seed(seed, 1)))
            self.seed_file.write_bytes(rng.bytes(self.seed_bytes))
        self.config_files = {
            False: _write_config(work / "run.cfg", self.config),
            True: _write_config(work / "small.cfg", {**self.config, **self.small}),
        }

    def prepare(self, d: Path, seed: int, small: bool) -> None:
        """Write the iteration's input files into ``d`` (untimed set-up)."""

    def run(self, d: Path, seed: int, small: bool) -> None:
        raise NotImplementedError

    def check(self, d: Path, seed: int) -> dict:
        """Raise CheckFailed on a wrong output; return the iteration's record."""
        raise NotImplementedError

    def resolved_config(self, seed: int):
        return load_config(self.config_files[False], {"source.rng_seed": seed})

    def warm_up(self) -> dict:
        """Run the small input twice with one seed; return both digest sets."""
        seed = derive_seed(self.seed, 2)
        runs = []
        for k in range(2):
            d = self.work / f"warm{k}"
            d.mkdir()
            self.prepare(d, seed, small=True)
            self.run(d, seed, small=True)
            runs.append({
                name: hashlib.sha256((d / name).read_bytes()).hexdigest()
                for name in self.digest_files
            })
        return {"first": runs[0], "repeat": runs[1]}


class BellRun(Workload):
    name = "bell_run"
    config = {
        "source.pair_rate_coeff": 3_000_000,
        "source.pump_power": 1.0,
        "source.duration_s": 1.6,
        "source.jitter_sigma": 100.0,
        "schedule.dwell": 10**7,
        "extractor.n_block": 10**6,
        "battery.n_sequences": 20,
        "battery.seq_len": 10**5,
    }
    small = {
        "source.duration_s": 0.03,
        "extractor.n_block": 40_000,
        "battery.n_sequences": 2,
        "battery.seq_len": 10_000,
    }
    digest_files = (
        "tags.qtt", "raw.bits", "cert_report.json", "extracted.bits",
        "toeplitz_seed.bin", "ratio_report.json", "battery_report.json",
    )
    seed_bytes = 2 * 10**6 // 8

    def run(self, d, seed, small):
        _cli("run", "--config", self.config_files[small], "--seed", seed, "--out", d,
             "--set", f"extractor.seed_path={self.seed_file}", *(["--force"] if small else []))

    def check(self, d, seed):
        manifest = json.loads((d / "manifest.json").read_text())
        cert = checks.certification(d)
        require(cert["verdict"] == "CERTIFIED_BELL", f"verdict {cert['verdict']}")
        require(abs(cert["S"] - 2.0 * math.sqrt(2.0)) <= 5.0 * cert["S_stderr"],
                f"S = {cert['S']:.4f} +/- {cert['S_stderr']:.4f} is not within 5 sigma of 2*sqrt(2)")
        cfg = self.resolved_config(seed)
        ts, ch, _ = checks.read_tags(d / "tags.qtt")
        share = _check_section_matching(ts, ch, cfg.coincidence.window_tau)
        raw = checks.read_bits(d / "raw.bits")
        _check_raw_count(cfg, raw.size)
        ext = checks.check_extraction(d, raw, self.seed_file, cfg.extractor.epsilon, seed, max_rows=128)
        battery = json.loads((d / "battery_report.json").read_text())
        return {
            "acquisition_s": self.config["source.duration_s"],
            "out_bits": ext["bits_out"],
            "tags_per_channel": np.bincount(ch, minlength=6).tolist(),
            "multi_tag_cluster_share": share,
            "raw": checks.bit_stats(raw),
            "cert": cert,
            "extract": ext,
            "battery_passed": bool(battery["passed"]),
            "stage_s": manifest["timing_s"],
        }


class PileupReplay(Workload):
    name = "pileup_replay"
    config = {
        "source.pair_rate_coeff": 10**7,
        "source.pump_power": 1.0,
        "source.duration_s": 0.05,
        "source.jitter_sigma": 350.0,
        "source.dark_rate": 10**5,
        "source.det_efficiency": 0.8,
        "source.dead_time": 0,
        "schedule.dwell": 10**7,
        "coincidence.window_tau": 2000,
        "certifier.block": 10_000,
    }
    small = {"source.duration_s": 0.005}
    digest_files = ("raw.bits", "coincidence_summary.json", "cert_report.json")

    def prepare(self, d, seed, small):
        cfg = load_config(self.config_files[small], {"source.rng_seed": seed})
        write_stream(generate_events(cfg.source), d / "input.qtt")

    def run(self, d, seed, small):
        for command in ("coincide", "certify"):
            _cli(command, "--config", self.config_files[small], "--tags", d / "input.qtt", "--out", d)

    def check(self, d, seed):
        cfg = self.resolved_config(seed)
        ts, ch, _ = checks.read_tags(d / "input.qtt")
        share = _check_section_matching(ts, ch, cfg.coincidence.window_tau)
        raw = checks.read_bits(d / "raw.bits")
        _check_raw_count(cfg, raw.size)
        summary = json.loads((d / "coincidence_summary.json").read_text())
        require(summary["raw_bits"] == raw.size, "summary raw_bits differs from raw.bits")
        for pair, row in summary["pairs"].items():
            a, b = pair.split("-")
            require(row["coincidences"] <= min(summary["singles"][a], summary["singles"][b]),
                    f"{pair}: more coincidences than singles")
        return {
            "acquisition_s": self.config["source.duration_s"],
            "out_bits": int(raw.size),
            "tags_per_channel": np.bincount(ch, minlength=6).tolist(),
            "multi_tag_cluster_share": share,
            "raw": checks.bit_stats(raw),
            "cert": checks.certification(d),
        }


class Postprocess(Workload):
    name = "postprocess"
    n_block = 8192
    raw_bits = {False: 512 * n_block + 1000, True: 8 * n_block}
    config = {
        "extractor.n_block": n_block,
        "battery.n_sequences": 4,
        "battery.seq_len": 10**6,
    }
    small = {"battery.n_sequences": 2, "battery.seq_len": 20_000}
    digest_files = ("extracted.bits", "toeplitz_seed.bin", "ratio_report.json", "battery_report.json")
    seed_bytes = 2 * n_block // 8

    def prepare(self, d, seed, small):
        rng = np.random.Generator(np.random.Philox(seed))
        bits = (rng.random(self.raw_bits[small]) < 0.51).astype(np.uint8)
        checks.write_bits(bits, d / "input.bits")

    def run(self, d, seed, small):
        cfg = self.config_files[small]
        _cli("extract", "--config", cfg, "--bits", d / "input.bits", "--out", d,
             "--set", f"extractor.seed_path={self.seed_file}")
        _cli("test", "--config", cfg, "--bits", d / "extracted.bits", "--out", d)

    def check(self, d, seed):
        raw = checks.read_bits(d / "input.bits")
        ext = checks.check_extraction(d, raw, self.seed_file, self.resolved_config(seed).extractor.epsilon,
                                      seed, max_rows=self.n_block)
        battery = json.loads((d / "battery_report.json").read_text())
        require(battery["n_sequences"] == self.config["battery.n_sequences"],
                "battery report covers the wrong number of sequences")
        return {
            "acquisition_s": raw.size / PAPER_RAW_RATE,
            "out_bits": ext["bits_out"],
            "raw": checks.bit_stats(raw),
            "extract": ext,
            "battery_passed": bool(battery["passed"]),
        }


WORKLOADS = {w.name: w for w in (BellRun, PileupReplay, Postprocess)}
