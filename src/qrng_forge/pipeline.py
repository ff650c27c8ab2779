"""End-to-end orchestration: simulate -> coincide -> certify -> extract -> test.

Configuration is a flat key-value text format (dotted keys, ``#``
comments), overridable from the command line:

    # pump and source
    source.pump_power      = 12.4        # mW
    source.pair_rate_coeff = 250000      # pairs/s per mW
    source.alpha           = 0.7071067811865476
    source.noise_p         = 1.0
    source.det_efficiency  = 1.0         # scalar or per channel: ...det_efficiency.C1 = 0.8
    source.dark_rate       = 0.0         # counts/s per channel
    source.jitter_sigma    = 350.0       # ps
    source.dead_time       = 0           # ps
    source.duration_s      = 1.0         # or source.duration_ps
    source.rng_seed        = 1
    schedule.kind          = chsh        # chsh | fringe
    schedule.a             = 0.0
    schedule.a_prime       = 45.0
    schedule.b             = 67.5
    schedule.b_prime       = 22.5
    schedule.dwell         = 1000000000  # ps per setting
    schedule.fixed         = 45.0        # fringe: fixed C2 angle
    schedule.steps         = 16          # fringe: scan steps
    coincidence.window_tau = 1000        # ps
    certifier.block        = 100000      # events per certification block
    extractor.n_block      = 1000000
    extractor.epsilon_log2 = -50
    extractor.seed_path    =             # empty -> fresh OS entropy
    battery.n_sequences    = 20
    battery.seq_len        = 100000
    battery.significance   = 0.01
    output_dir             = qrng_run

Every run writes a manifest with the full resolved config, RNG seed,
output digests, stage timings and stage telemetry (items in and out,
rate, peak memory), the kernel backend and numpy's version; re-running from
a manifest reproduces the bit outputs byte for byte. With the C kernels the
simulated stream does not depend on numpy's version; on the numpy backend
it may, since numpy does not pin its samplers' streams (NEP 19).

``run`` writes ``tags.qtt`` on a thread of its own, from the moment the
events are generated, while coincide, certify, extract and test run; the
file is complete, and its digest known, before the manifest is built, and
the run waits for that thread on every exit, an error's included.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _native
from .certify import (
    MIN_BLOCK_EVENTS,
    SQRT8,
    CertBlock,
    Verdict,
    _chsh_from_bins,
    _fringe_samples,
    certify_run,
    chsh_structure,
    fringe_counts,
    run_verdict,
    visibility,
)
from .coincidence import (
    CoincidenceConfig,
    bell_coincidences,
    coincide_stream,
    coincidence_summary,
)
from .extract import extract_stream, hash_workers
from .randtests import run_battery
from .source import (
    AnalyzerSchedule,
    EventBudgetError,
    SourceConfig,
    TwoPhotonState,
    expected_rates,
    generate_events,
    simulation_workers,
    state_from_hwp,
)
from .timetags import (
    BitSequence,
    Channel,
    TagStream,
    _record_buffer,
    _write_records,
    write_bits,
)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class CertificationRefused(RuntimeError):
    """Run is UNCERTIFIED and extraction was not forced."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


_DEFAULTS: dict[str, object] = {
    "source.pump_power": 12.4,
    "source.pair_rate_coeff": 250_000.0,
    "source.alpha": math.sqrt(0.5),
    "source.noise_p": 1.0,
    "source.det_efficiency": 1.0,
    "source.dark_rate": 0.0,
    "source.jitter_sigma": 350.0,
    "source.dead_time": 0,
    "source.duration_s": 1.0,
    "source.rng_seed": 1,
    "schedule.kind": "chsh",
    "schedule.a": 0.0,
    "schedule.a_prime": 45.0,
    "schedule.b": 67.5,
    "schedule.b_prime": 22.5,
    "schedule.dwell": 10**9,
    "schedule.fixed": 45.0,
    "schedule.steps": 16,
    "coincidence.window_tau": 1000,
    "certifier.block": 100_000,
    "extractor.n_block": 1_000_000,
    "extractor.epsilon_log2": -50,
    "extractor.seed_path": "",
    "battery.n_sequences": 20,
    "battery.seq_len": 100_000,
    "battery.significance": 0.01,
    "output_dir": "qrng_run",
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines (dotted keys, # comments) to a dict."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = _coerce(value)
    return out


def _coerce(value: str):
    if value == "":
        return ""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


@dataclass(frozen=True)
class ExtractorSettings:
    n_block: int = 1_000_000
    epsilon: float = 2.0**-50
    seed_path: str = ""

    def __post_init__(self):
        # written as not (condition), so that NaN fails each check
        if not self.n_block >= 1:
            raise ConfigError("extractor.n_block must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("extractor.epsilon_log2 must give an epsilon in (0, 1]")


@dataclass(frozen=True)
class BatterySettings:
    n_sequences: int = 20
    seq_len: int = 100_000
    significance: float = 0.01

    def __post_init__(self):
        if not self.n_sequences >= 1:
            raise ConfigError("battery.n_sequences must be >= 1")
        if not self.seq_len >= 1:
            raise ConfigError("battery.seq_len must be >= 1")
        if not 0.0 < self.significance < 1.0:
            raise ConfigError("battery.significance must lie in (0, 1)")


@dataclass(frozen=True)
class RunConfig:
    source: SourceConfig
    coincidence: CoincidenceConfig
    cert_block: int
    extractor: ExtractorSettings
    battery: BatterySettings
    output_dir: Path
    snapshot: dict = field(default_factory=dict, compare=False)


def build_config(overrides: dict[str, object] | None = None) -> RunConfig:
    """Resolve defaults plus overrides into a validated RunConfig."""
    values = dict(_DEFAULTS)
    # per-channel values, source.<field>.<CH> = v, by field and channel
    per_channel: dict[str, dict[Channel, float]] = {
        "source.det_efficiency": {}, "source.dark_rate": {}}
    for key, val in (overrides or {}).items():
        field_key, _, name = key.rpartition(".")
        if field_key in per_channel:
            per_channel[field_key][_channel(name)] = _number(float, key, val)
        elif key in values or key in ("source.hwp_theta", "source.duration_ps"):
            values[key] = val
        else:
            raise ConfigError(f"unknown config key {key!r}")

    def num(kind, key):
        return _number(kind, key, values[key])

    try:
        if "source.hwp_theta" in values:
            state = state_from_hwp(
                num(float, "source.hwp_theta"), num(float, "source.noise_p")
            )
        else:
            alpha = num(float, "source.alpha")
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError("source.alpha must lie in [0, 1]")
            state = TwoPhotonState(
                alpha, math.sqrt(max(1.0 - alpha * alpha, 0.0)),
                num(float, "source.noise_p"),
            )

        kind = str(values["schedule.kind"])
        dwell = num(int, "schedule.dwell")
        if kind == "chsh":
            schedule = AnalyzerSchedule.chsh(
                num(float, "schedule.a"),
                num(float, "schedule.a_prime"),
                num(float, "schedule.b"),
                num(float, "schedule.b_prime"),
                dwell,
            )
        elif kind == "fringe":
            schedule = AnalyzerSchedule.fringe(
                num(float, "schedule.fixed"),
                num(int, "schedule.steps"),
                dwell=dwell,
            )
        else:
            raise ConfigError(f"unknown schedule.kind {kind!r}")

        if "source.duration_ps" in values:
            duration_key, to_ps = "source.duration_ps", int
        else:
            duration_key, to_ps = "source.duration_s", lambda v: round(float(v) * 1e12)
        duration = num(to_ps, duration_key)
        if num(float, duration_key) < 0:
            raise ConfigError(f"{duration_key} must be >= 0")
        # zero-length acquisitions clamp to the 1 ps floor (empty stream)
        duration = max(duration, 1)

        source = SourceConfig(
            pump_power=num(float, "source.pump_power"),
            pair_rate_coeff=num(float, "source.pair_rate_coeff"),
            state=state,
            analyzer_schedule=schedule,
            duration=duration,
            rng_seed=num(int, "source.rng_seed"),
            det_efficiency=_channel_values(values, per_channel, "source.det_efficiency"),
            dark_rate=_channel_values(values, per_channel, "source.dark_rate"),
            jitter_sigma=num(float, "source.jitter_sigma"),
            dead_time=num(int, "source.dead_time"),
        )
        coincidence = CoincidenceConfig(window_tau=num(int, "coincidence.window_tau"))
        extractor = ExtractorSettings(
            n_block=num(int, "extractor.n_block"),
            epsilon=num(lambda v: 2.0 ** float(v), "extractor.epsilon_log2"),
            seed_path=str(values["extractor.seed_path"]),
        )
        battery = BatterySettings(
            n_sequences=num(int, "battery.n_sequences"),
            seq_len=num(int, "battery.seq_len"),
            significance=num(float, "battery.significance"),
        )
        cert_block = num(int, "certifier.block")
        if cert_block < MIN_BLOCK_EVENTS:
            raise ConfigError(f"certifier.block must be >= {MIN_BLOCK_EVENTS}")
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError, EventBudgetError) as exc:
        raise ConfigError(str(exc)) from exc

    snapshot = {k: values[k] for k in sorted(values)}
    for field_key, by_channel in per_channel.items():
        for ch, v in by_channel.items():
            snapshot[f"{field_key}.{ch.name}"] = v
    return RunConfig(
        source=source,
        coincidence=coincidence,
        cert_block=cert_block,
        extractor=extractor,
        battery=battery,
        output_dir=Path(str(values["output_dir"])),
        snapshot=snapshot,
    )


def _number(kind, key: str, value):
    """``kind(value)``, the value of config key ``key``; a ConfigError that
    names the key when the conversion fails, or when ``kind`` is int and a
    finite float has a fractional part, which int() would drop."""
    try:
        number = kind(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{key}: {value!r} is not an integer")
    return number


def _channel_values(values: dict, per_channel: dict, key: str):
    """The scalar ``values[key]``, or, when some channel has a value of its
    own, a mapping of every channel to that value or else to the scalar."""
    scalar = _number(float, key, values[key])
    if not per_channel[key]:
        return scalar
    return {ch: per_channel[key].get(ch, scalar) for ch in Channel}


def _channel(name: str) -> Channel:
    try:
        return Channel[name]
    except KeyError:
        raise ConfigError(f"unknown channel {name!r}") from None


def load_config(path=None, overrides: dict[str, object] | None = None) -> RunConfig:
    values: dict[str, object] = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text()))
    values.update(overrides or {})
    return build_config(values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


@dataclass
class PipelineResult:
    manifest: dict
    summary: str
    out_dir: Path


def _channel_rates(cfg: RunConfig, observed: dict[Channel, int]) -> dict:
    """Observed against analytic rates of each channel, from the ``observed``
    tags of each channel of the acquisition."""
    duration_s = cfg.source.duration * 1e-12
    expected = expected_rates(cfg.source)
    return {
        ch.name: {
            "observed_hz": observed[ch] / duration_s if duration_s else 0.0,
            "expected_hz": expected.singles[ch],
        }
        for ch in Channel
    }


def certification_report(
    cert_coincs,
    schedule: AnalyzerSchedule,
    cert_block: int,
    window: CoincidenceConfig,
    stream: TagStream,
) -> tuple[list[CertBlock], dict]:
    """Blockwise certification of the coincidences ``cert_coincs`` of
    ``stream``, plus run-level aggregates (and, for fringe schedules, the
    fitted visibility), from the sum of the blocks' counts per setting."""
    duration = stream.duration
    blocks, g2_run, counts = certify_run(
        cert_coincs, schedule, cert_block, duration=duration, window=window, stream=stream
    )
    verdict = run_verdict(blocks)
    report: dict = {
        "verdict": verdict.value,
        "n_cert_events": len(cert_coincs),
        "blocks": [b.to_dict() for b in blocks],
        "g2_run": g2_run,
    }
    duration_s = duration * 1e-12
    if chsh_structure(schedule):
        run_chsh = _chsh_from_bins(counts)
        if run_chsh is None:  # a setting pair without coincidences
            report["S_run"] = None
        else:
            report["S_run"] = run_chsh.s
            report["S_run_stderr"] = run_chsh.s_stderr
            report["E_values"] = list(run_chsh.e_values)
            report["visibility"] = {"bell_equivalent": run_chsh.s / SQRT8}
    else:
        try:
            fit = visibility(_fringe_samples(counts, schedule, duration))
            report["visibility"] = {
                "fit": fit.v,
                "raw": fit.v_raw,
                "phase_deg": fit.phase_deg,
            }
        except (ValueError, RuntimeError) as exc:
            report["visibility"] = {"error": str(exc)}
    report["duration_s"] = duration_s
    return blocks, report


def _pair_names(by_pair: dict) -> dict:
    """``by_pair`` keyed by ``"A-B"`` for each channel pair ``(A, B)``."""
    return {f"{a.name}-{b.name}": n for (a, b), n in by_pair.items()}


def _coincide(cfg: RunConfig, stream: TagStream, out_dir: Path):
    """Coincide stage: :func:`coincide_stream` on ``stream``, written to
    ``raw.bits`` and ``coincidence_summary.json``; returns what it matched
    and the summary."""
    found = coincide_stream(stream, cfg.coincidence)
    write_bits(found.bits, out_dir / "raw.bits")
    summary = coincidence_summary(found.singles, stream.duration, cfg.coincidence, found.matches)
    summary["raw_bits"] = len(found.bits)
    # not _write_json: this file's keys stay in insertion order, its published layout
    (out_dir / "coincidence_summary.json").write_text(json.dumps(summary, indent=2))
    return found, summary


def _certify(cfg: RunConfig, stream: TagStream, cert_coincs, out_dir: Path):
    """Certify stage: :func:`certification_report` on the C1-C2 coincidences
    of ``stream``, written to ``cert_report.json``."""
    blocks, report = certification_report(
        cert_coincs, cfg.source.analyzer_schedule, cfg.cert_block, cfg.coincidence, stream
    )
    _write_json(out_dir / "cert_report.json", report)
    return blocks, report


def _extract(cfg: RunConfig, raw_bits: BitSequence, out_dir: Path, seed_source=None,
             acquisition_seconds: float | None = None):
    """Extract stage: Toeplitz-hash the raw bits with ``seed_source`` (default:
    ``extractor.seed_path``, empty for OS entropy); writes ``extracted.bits``,
    ``toeplitz_seed.bin`` and ``ratio_report.json``."""
    if seed_source is None:
        seed_source = cfg.extractor.seed_path or None
    extracted, report, params = extract_stream(
        raw_bits,
        epsilon=cfg.extractor.epsilon,
        n_block=cfg.extractor.n_block,
        seed_source=seed_source,
        acquisition_seconds=acquisition_seconds,
    )
    write_bits(extracted, out_dir / "extracted.bits")
    (out_dir / "toeplitz_seed.bin").write_bytes(params.seed.to_bytes())
    _write_json(out_dir / "ratio_report.json", report.to_dict())
    return extracted, report


def _test(cfg: RunConfig, bits: BitSequence, out_dir: Path):
    """Test stage: the battery over ``bits``, written to ``battery_report.json``."""
    report = run_battery(
        bits, cfg.battery.n_sequences, cfg.battery.seq_len, cfg.battery.significance
    )
    _write_json(out_dir / "battery_report.json", report.to_dict())
    return report


def _timed(fn, *args):
    """``fn(*args)``, and the seconds it took."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _tags_written(job, row: dict) -> str:
    """The digest of ``tags.qtt`` that the writer thread's ``job`` returns,
    once it is done; the seconds it took and the seconds this waited for it
    go into the simulate stage's ``row``. A failed write raises
    :class:`StageError` naming the simulate stage."""
    t0 = time.perf_counter()
    try:
        digest, row["write_s"] = job.result()
    except Exception as exc:
        raise StageError("simulate", exc) from exc
    row["write_wait_s"] = time.perf_counter() - t0
    return digest


@contextmanager
def _stage(name: str, timing: dict[str, float], stages: dict[str, dict],
           unit_in: str, unit_out: str):
    """Time one stage into ``timing[name]``, and record its telemetry into
    ``stages[name]``: items in and out (the body sets ``counts["in"]`` and
    ``counts["out"]`` on the yielded dict), items in per second, the
    process's peak resident memory so far, and any other key the body sets
    on the dict. A failure inside the stage raises :class:`StageError`
    naming it."""
    counts = {"in": 0, "out": 0}
    t0 = time.perf_counter()
    try:
        yield counts
    except Exception as exc:
        raise StageError(name, exc) from exc
    timing[name] = seconds = time.perf_counter() - t0
    stages[name] = {
        "items_in": counts["in"],
        "unit_in": unit_in,
        "items_out": counts["out"],
        "unit_out": unit_out,
        "rate_per_s": counts["in"] / seconds if seconds > 0 else 0.0,
        # ru_maxrss can read lower in a later stage, so the peak so far is
        # also the earlier stages' greatest
        "peak_rss_mib": max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             *(row["peak_rss_mib"] for row in stages.values())]),
        **{key: value for key, value in counts.items() if key not in ("in", "out")},
    }


def run_pipeline(
    cfg: RunConfig,
    out_dir: Path | None = None,
    force: bool = False,
    extractor_seed: bytes | None = None,
) -> PipelineResult:
    """The full flow; writes all artifacts plus ``manifest.json``."""
    out_dir = Path(out_dir) if out_dir is not None else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    timing: dict[str, float] = {}
    stages: dict[str, dict] = {}
    digested = ["raw.bits", "cert_report.json", "extracted.bits", "toeplitz_seed.bin"]
    duration_s = cfg.source.duration * 1e-12

    # tags.qtt is written on a thread of its own while the later stages run;
    # leaving this block, on every exit, waits for that thread
    from concurrent.futures import ThreadPoolExecutor  # imported here, as in source

    with ThreadPoolExecutor(1, thread_name_prefix="qrng_forge-tags") as writer:
        with _stage("simulate", timing, stages, "acquisition_s", "tags") as counts:
            stream = generate_events(cfg.source)
            written = writer.submit(_timed, _write_records, stream, out_dir / "tags.qtt",
                                    _record_buffer(len(stream)))
            counts["in"], counts["out"] = duration_s, len(stream)
            counts["workers"] = simulation_workers(cfg.source)
        with _stage("coincide", timing, stages, "tags", "raw_bits") as counts:
            found, _ = _coincide(cfg, stream, out_dir)
            raw_bits = found.bits
            counts["in"], counts["out"] = len(stream), len(raw_bits)
            counts["workers"] = found.workers
            counts["multi_tag_clusters"] = _pair_names(found.multi_tag_clusters)
        with _stage("certify", timing, stages, "coincidences", "blocks") as counts:
            blocks, cert_report = _certify(cfg, stream, found.bell, out_dir)
            counts["in"], counts["out"] = len(found.bell), len(blocks)
        verdict = Verdict(cert_report["verdict"])
        pair_counts = _pair_names(found.matches)
        rates = _channel_rates(cfg, found.singles)
        # the tags and coincidences are done with; free them before extraction
        # allocates its output (the writer frees the tags when it is done)
        del stream, found

        if verdict is Verdict.UNCERTIFIED and not force:
            raise CertificationRefused(
                "run verdict is UNCERTIFIED; pass --force to extract anyway"
            )

        with _stage("extract", timing, stages, "raw_bits", "bits") as counts:
            extracted, extraction = _extract(
                cfg, raw_bits, out_dir, extractor_seed, acquisition_seconds=duration_s
            )
            counts["in"], counts["out"] = len(raw_bits), len(extracted)
            counts["workers"] = hash_workers(extraction.blocks)
        need = cfg.battery.n_sequences * cfg.battery.seq_len
        battery = {"note": f"skipped: needs {need} bits, extracted {len(extracted)}"}
        with _stage("test", timing, stages, "bits", "sequences") as counts:
            if len(extracted) >= need:
                battery = _test(cfg, extracted, out_dir).to_dict()
                digested.append("battery_report.json")
                counts["in"], counts["out"] = need, cfg.battery.n_sequences
        tag_digest = _tags_written(written, stages["simulate"])

    raw_rate = len(raw_bits) / duration_s if duration_s else 0.0
    h_min = extraction.h_min
    mbps = extraction.mbps or 0.0
    s_run = cert_report.get("S_run")
    manifest = {
        "tool": "qrng-forge",
        "version": __version__,
        "kernel_backend": "numpy" if _native.library() is None else "c",
        "numpy": np.__version__,
        "config": cfg.snapshot,
        "rng_seed": cfg.source.rng_seed,
        "extractor_seed_file": "toeplitz_seed.bin",
        "digests": {"tags.qtt": tag_digest, **{name: _sha256(out_dir / name) for name in digested}},
        "timing_s": timing,
        "stages": stages,
        "certification": {
            "verdict": verdict.value,
            "forced": bool(force and verdict is Verdict.UNCERTIFIED),
            "S_run": s_run,
            "g2_run": cert_report.get("g2_run"),
            "n_blocks": len(blocks),
            "block_margins": [b.margin for b in blocks],
        },
        "rates": {
            "raw_bits": len(raw_bits),
            "raw_rate_hz": raw_rate,
            "extracted_bits": len(extracted),
            "extracted_mbps": mbps,
            "h_min": h_min,
            "pair_counts": pair_counts,
            "channel_rates_hz": rates,
        },
        "battery": battery,
    }
    # not _write_json: the stages and their seconds stay in the order they ran
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))

    s_text = f"{s_run:.4f}" if isinstance(s_run, float) else "n/a"
    summary = (
        f"raw {raw_rate / 1e6:.3f} Mbps ({len(raw_bits)} bits) | "
        f"extracted {mbps:.3f} Mbps ({len(extracted)} bits) | "
        f"S = {s_text} | H_min = {h_min:.4f} | verdict {verdict.value}"
    )
    return PipelineResult(manifest=manifest, summary=summary, out_dir=out_dir)


def rerun_from_manifest(
    manifest_path, out_dir: Path, force: bool = False
) -> PipelineResult:
    """Re-run a recorded pipeline; bit outputs must match byte for byte."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    cfg = build_config(manifest["config"])
    seed_file = manifest_path.parent / manifest["extractor_seed_file"]
    forced = force or manifest.get("certification", {}).get("forced", False)
    return run_pipeline(
        cfg, out_dir=out_dir, force=forced, extractor_seed=seed_file.read_bytes()
    )


def sweep(
    cfg: RunConfig,
    parameter: str,
    values: list[float],
    out_dir: Path,
) -> list[dict]:
    """One pipeline per value; returns rows of (value, S, V, g2, H_min, mbps).

    ``parameter`` is one of pump_power, window_tau (ps), alpha. Each
    point also runs a diagonal-basis fringe acquisition for V, as long as
    the point's own (``source.duration``).
    Failures are recorded per point and the sweep continues. An alpha
    sweep of a config that sets ``source.hwp_theta``, which would take the
    state from the angle at every point, is a ConfigError.
    """
    if parameter not in ("pump_power", "window_tau", "alpha"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 values")
    if parameter == "alpha" and "source.hwp_theta" in cfg.snapshot:
        raise ConfigError("an alpha sweep needs a config without source.hwp_theta, "
                          "which sets the state in place of source.alpha")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, value in enumerate(values):
        overrides: dict[str, object] = dict(cfg.snapshot)
        if parameter == "pump_power":
            overrides["source.pump_power"] = value
        elif parameter == "window_tau":
            overrides["coincidence.window_tau"] = value
        else:
            overrides["source.alpha"] = value
        row: dict = {"value": value}
        try:
            point_cfg = build_config(overrides)
            point_dir = out_dir / f"point_{i:03d}"
            result = run_pipeline(point_cfg, out_dir=point_dir, force=True)
            cert = result.manifest["certification"]
            row["S"] = cert.get("S_run")
            row["g2"] = cert["g2_run"]
            row["h_min"] = result.manifest["rates"]["h_min"]
            row["mbps"] = result.manifest["rates"]["extracted_mbps"]
            row["verdict"] = cert["verdict"]

            fringe_overrides = dict(overrides)
            fringe_overrides["schedule.kind"] = "fringe"
            fringe_overrides["schedule.fixed"] = 45.0
            fringe_cfg = build_config(fringe_overrides)
            stream = generate_events(fringe_cfg.source)
            cert_coincs = bell_coincidences(stream, fringe_cfg.coincidence)
            samples = fringe_counts(
                cert_coincs, fringe_cfg.source.analyzer_schedule, fringe_cfg.source.duration
            )
            row["V"] = visibility(samples).v
        except Exception as exc:  # per-point failure: record, continue
            row["error"] = str(exc)
        rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    header = ["value", "S", "V", "g2", "h_min", "mbps", "verdict", "error"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                "" if row.get(col) is None else str(row.get(col, ""))
                for col in header
            )
        )
    return "\n".join(lines) + "\n"
