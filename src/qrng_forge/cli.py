"""Command-line interface.

Subcommands wire the pipeline stages over files:

    simulate   config -> QTT1 tag file, with observed-vs-analytic rates
    coincide   QTT1 -> raw bit file + coincidence summary JSON
    certify    QTT1 -> certification report JSON
    extract    raw bit file -> extracted bit file + ratio report JSON
    test       bit file -> battery report JSON + final P-value table
    run        full pipeline with manifest (reproducible via --from-manifest)
    sweep      one pipeline per parameter value -> CSV
    export     bit file -> raw_packed or ascii01 bytes

Each stage subcommand writes the same artifacts, byte for byte, as that
stage of ``run`` on the same input. ``coincide``, ``certify``, ``extract``
and ``test`` call the stage function that ``run`` calls. ``certify`` first
matches the C1-C2 pair alone, by ``bell_coincidences``: the ``qf_coincide``
pass that ``run`` makes over all three pairs, with the bit channels left
out. ``simulate`` calls ``generate_events`` and writes ``tags.qtt`` with
``write_stream`` on the calling thread, where ``run`` writes it on a thread
of its own while the later stages run.

The one difference in output: ``extract`` has no acquisition time, so
``seconds`` and ``mbps`` in its ``ratio_report.json`` are null.

Exit codes: 0 success, 2 configuration error or unusable input (such as
too few bits for the extractor block or the battery), 3 I/O error,
4 certification refused (UNCERTIFIED without --force), 1 any other stage
failure of ``run``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coincidence import bell_coincidences
from .pipeline import (
    CertificationRefused,
    ConfigError,
    StageError,
    _certify,
    _channel_rates,
    _coerce,
    _coincide,
    _extract,
    _test,
    load_config,
    rerun_from_manifest,
    run_pipeline,
    sweep,
    sweep_csv,
)
from .randtests import export_bits
from .source import generate_events
from .timetags import TagFileError, read_bits, read_stream, write_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_REFUSED = 4


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="config file (key = value lines)")
    parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="shorthand for source.rng_seed")
    parser.add_argument("--pump-power", type=float, help="shorthand for source.pump_power (mW)")
    parser.add_argument(
        "--window-ns", type=float, help="shorthand for coincidence.window_tau, in ns"
    )
    parser.add_argument("--out", type=Path, help="output directory")


def _collect_overrides(args) -> dict:
    overrides: dict[str, object] = {}
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = _coerce(value.strip())
    if args.seed is not None:
        overrides["source.rng_seed"] = args.seed
    if args.pump_power is not None:
        overrides["source.pump_power"] = args.pump_power
    if args.window_ns is not None:
        overrides["coincidence.window_tau"] = int(round(args.window_ns * 1000))
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    return overrides


def _load(args):
    return load_config(args.config, _collect_overrides(args))


def _out_dir(cfg) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def cmd_simulate(args) -> int:
    cfg = _load(args)
    stream = generate_events(cfg.source)
    tag_path = _out_dir(cfg) / "tags.qtt"
    write_stream(stream, tag_path)
    rates = _channel_rates(cfg, stream.counts_by_channel())
    print(f"wrote {tag_path} ({len(stream)} tags, {cfg.source.duration} ps)")
    print(f"{'channel':>8} {'observed Hz':>14} {'expected Hz':>14}")
    for name, row in rates.items():
        print(f"{name:>8} {row['observed_hz']:>14.1f} {row['expected_hz']:>14.1f}")
    return EXIT_OK


def cmd_coincide(args) -> int:
    cfg = _load(args)
    stream = read_stream(args.tags)
    _, summary = _coincide(cfg, stream, _out_dir(cfg))
    print(f"raw bits: {summary['raw_bits']}")
    for pair, row in summary["pairs"].items():
        car = "n/a" if row["car"] is None else f"{row['car']:.1f}"
        print(
            f"{pair}: {row['coincidences']} coincidences, "
            f"accidental {row['accidental_rate_hz']:.2f} Hz, CAR {car}"
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load(args)
    stream = read_stream(args.tags)
    cert_coincs = bell_coincidences(stream, cfg.coincidence)
    _, report = _certify(cfg, stream, cert_coincs, _out_dir(cfg))
    s = report.get("S_run")
    s_text = f"{s:.4f} +/- {report.get('S_run_stderr', 0.0):.4f}" if isinstance(s, float) else "n/a"
    print(f"verdict: {report['verdict']}  S = {s_text}  g2 = {report.get('g2_run')}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _load(args)
    raw = read_bits(args.bits)
    _, report = _extract(cfg, raw, _out_dir(cfg))
    print(
        f"h_min {report.h_min:.4f} | {report.bits_in} -> {report.bits_out} bits "
        f"(ratio {report.ratio:.4f}, {report.blocks} blocks)"
    )
    return EXIT_OK


def cmd_test(args) -> int:
    cfg = _load(args)
    bits = read_bits(args.bits)
    report = _test(cfg, bits, _out_dir(cfg))
    lo, hi = report.proportion_range
    print(f"{'test':<22} {'final P':>10} {'proportion':>11}  in ({lo:.4f}, {hi:.4f})")
    for test_id in report.p_values:
        ok = lo <= report.proportion[test_id] <= hi and report.uniformity_p[test_id] >= 1e-4
        print(
            f"{test_id:<22} {report.uniformity_p[test_id]:>10.4f} "
            f"{report.proportion[test_id]:>11.3f}  {'pass' if ok else 'FAIL'}"
        )
    print(f"battery verdict: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.from_manifest:
        result = rerun_from_manifest(
            args.from_manifest, args.out or Path("qrng_rerun"), force=args.force
        )
    else:
        result = run_pipeline(_load(args), force=args.force)
    print(result.summary)
    print(f"manifest: {result.out_dir / 'manifest.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    rows = sweep(cfg, args.parameter, values, cfg.output_dir)
    csv_text = sweep_csv(rows)
    (cfg.output_dir / "sweep.csv").write_text(csv_text)
    print(csv_text, end="")
    return EXIT_OK


def cmd_export(args) -> int:
    bits = read_bits(args.bits)
    payload = export_bits(bits, args.format)
    Path(args.out_file).write_bytes(payload)
    print(f"wrote {len(payload)} bytes ({args.format}) to {args.out_file}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrng-forge",
        description="entangled-pair QRNG pipeline: simulate, certify, extract, validate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a QTT1 tag file from config")
    _add_config_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coincide", help="match coincidences and emit raw bits")
    _add_config_options(p)
    p.add_argument("--tags", type=Path, required=True, help="QTT1 input file")
    p.set_defaults(func=cmd_coincide)

    p = sub.add_parser("certify", help="blockwise certification report")
    _add_config_options(p)
    p.add_argument("--tags", type=Path, required=True, help="QTT1 input file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("extract", help="Toeplitz-extract a raw bit file")
    _add_config_options(p)
    p.add_argument("--bits", type=Path, required=True, help="raw bit file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("test", help="run the statistical battery on a bit file")
    _add_config_options(p)
    p.add_argument("--bits", type=Path, required=True, help="bit file")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("run", help="full pipeline with manifest")
    _add_config_options(p)
    p.add_argument("--force", action="store_true", help="extract even if UNCERTIFIED")
    p.add_argument(
        "--from-manifest", type=Path, help="re-run a recorded manifest byte-identically"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="pipeline sweep over one parameter")
    _add_config_options(p)
    p.add_argument(
        "--parameter",
        required=True,
        choices=["pump_power", "window_tau", "alpha"],
    )
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="export bits for external harnesses")
    p.add_argument("--bits", type=Path, required=True)
    p.add_argument("--format", choices=["raw_packed", "ascii01"], default="raw_packed")
    p.add_argument("--out-file", type=Path, required=True)
    p.set_defaults(func=cmd_export)
    return parser


def _exit_code(exc: Exception) -> int:
    """Exit code of an error ``main`` reports.

    A StageError from ``run`` maps by its cause, so a stage fails with the
    same code under ``run`` as its own subcommand does.
    """
    if isinstance(exc, StageError):
        return _exit_code(exc.cause)
    if isinstance(exc, CertificationRefused):
        return EXIT_REFUSED
    if isinstance(exc, ValueError):  # ConfigError, or an input too short or malformed
        return EXIT_CONFIG
    if isinstance(exc, (OSError, TagFileError)):
        return EXIT_IO
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, CertificationRefused, ValueError, OSError, TagFileError) as exc:
        prefix = ("config error" if isinstance(exc, ConfigError)
                  else "i/o error" if isinstance(exc, (OSError, TagFileError)) else "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
