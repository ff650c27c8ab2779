#!/usr/bin/env python3
"""Benchmark of the qrng_forge pipeline, driven the way users drive it.

    python3 perfbench/run.py --workload bell_run --seed 1 --seconds 36 --trace 0

Run from the repository root. Workloads (see ``workloads.py`` for why
each was chosen): ``bell_run``, ``pileup_replay``, ``postprocess``.

One process runs one workload: set-up (imports, a warm-up that runs the
workload on a small input twice and compares output digests), then a
closed loop of iterations, each with its own input, started until
``--seconds`` of wall time have passed (at least one). Every
iteration's outputs are checked; see ``checks.py``. An iteration that
raises or fails a check counts as failed, and a warm-up whose two digest
sets differ fails every iteration, since no output of the process can
be reproduced.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: imports + warm-up + the median per-iteration input set-up
* ``wall_s``: median seconds per iteration, input to complete result
* ``realtime_x``: median acquisition seconds processed per wall second
  (``postprocess`` counts its raw bits at the paper's 9e7 bits / 46.4 s)
* ``out_mbps``: median Mbit of final output per wall second: extracted
  bits, or raw bits for ``pileup_replay``, which ends at matching
* ``peak_rss_mib``: ``ru_maxrss`` of this process after set-up and the
  first iteration, as a user running one CLI job per process sees it
  (later iterations reuse the heap, and the extractor's seed-transform
  cache grows with each new block size, so the peak after k iterations
  would depend on k)
* ``pass_ratio``: iterations that passed every check / iterations attempted

``--trace 1`` reports per-layer metrics instead: every iteration runs with
every public function of the package wrapped in a span (``spans.py``).
``trace.overhead_s`` is what the wrappers add to an iteration's wall: its
span count times the traced-minus-untraced wall of one wrapped no-op
call, measured in the same process. Layer values are medians over the
iterations, 0 where the workload does not reach the layer. Metric names
and units are those of ``BENCHMARK.json``.

The last stdout line is the result JSON; the line before it, and
``.perfbench_results/<workload>-seed<seed>-trace<t>.json`` (which also
holds the spans), record the environment, kernel backend, input
properties, per-iteration records and the warm-up digests.
"""

from __future__ import annotations

import os
import sys

#: Pinned before numpy loads, so every run uses one thread per layer.
THREAD_VARS = {
    name: "1"
    for name in (
        "QRNG_FORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("source", "timetags", "coincidence", "certify", "extract", "randtests", "pipeline", "cli")
STAGES = ("simulate", "coincide", "certify", "extract", "test")

#: Which stage of ``run_pipeline`` a direct child span belongs to.
STAGE_OF = {
    "pipeline.simulate_to_file": "simulate",
    "timetags.channel_times": "coincide",
    "coincidence.find_coincidences": "coincide",
    "coincidence.concat_coincidences": "coincide",
    "coincidence.assign_bits": "coincide",
    "pipeline.certification_report": "certify",
    "extract.extract_stream": "extract",
    "randtests.run_battery": "test",
}

#: Item counts recorded with the spans of these functions.
COUNTERS = {
    "source.generate_events": lambda a, k, r: (len(r),),
    "coincidence.find_coincidences": lambda a, k, r: (
        len(a[0]) + len(a[1]), len(r), min(len(a[0]), len(a[1]))
    ),
    "extract.extract_stream": lambda a, k, r: (r[1].bits_in, r[1].bits_out),
    "randtests.run_battery": lambda a, k, r: (r.n_sequences * r.seq_len,),
}


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bell_run", "pileup_replay", "postprocess"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from qrng_forge import coincidence, extract

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": {
            mod.__name__: "python" if getattr(mod, "numba", None) is None else "numba"
            for mod in (coincidence, extract)
        },
        "threads": THREAD_VARS,
    }


def layer_metrics(records: list[dict], span_list: list[list], span_cost_s: float) -> dict:
    """Per-layer values: the median over the (traced) iterations."""
    from spans import stage_spans, summarize

    rows = []
    for rec in (r for r in records if "spans" in r):
        first, end = rec["spans"]
        s = summarize(span_list, first, end)

        def t(name):
            return s.get(name, {}).get("s", 0.0)

        def counts(name, k):
            return (s.get(name, {}).get("counts") or [0] * (k + 1))[k]

        def self_sum(prefix):
            return sum(v["self_s"] for n, v in s.items() if n.startswith(prefix))

        cert = rec.get("cert", {})
        ext = rec.get("extract", {})
        stage_s = rec.get("stage_s", {})
        spans_by_stage = stage_spans(span_list, first, end, "pipeline.run_pipeline", STAGE_OF)
        row = {
            "source.generate_events.s": t("source.generate_events"),
            "source.tags_per_s": _ratio(counts("source.generate_events", 0), t("source.generate_events")),
            "timetags.write_stream.s": t("timetags.write_stream"),
            "timetags.read_stream.s": t("timetags.read_stream"),
            "timetags.channel_times.s": t("timetags.channel_times"),
            "timetags.read_bits.s": t("timetags.read_bits"),
            "timetags.write_bits.s": t("timetags.write_bits"),
            "coincidence.find_coincidences.s": t("coincidence.find_coincidences"),
            "coincidence.find_coincidences.calls": s.get("coincidence.find_coincidences", {}).get("calls", 0),
            "coincidence.find_coincidences.tags_per_s": _ratio(
                counts("coincidence.find_coincidences", 0), t("coincidence.find_coincidences")),
            "coincidence.match_yield": _ratio(
                counts("coincidence.find_coincidences", 1), counts("coincidence.find_coincidences", 2)),
            "coincidence.count_matrix.s": t("coincidence.count_matrix"),
            "coincidence.assign_bits.s": t("coincidence.assign_bits"),
            "coincidence.multi_tag_cluster_share": rec.get("multi_tag_cluster_share", 0.0),
            "certify.certification_report.s": t("pipeline.certification_report"),
            "certify.blocks": cert.get("blocks", 0),
            "certify.certified_share": cert.get("certified_share", 0.0),
            "certify.min_margin": cert.get("min_margin", 0.0),
            "extract.extract_stream.s": t("extract.extract_stream"),
            "extract.in_mbps": _ratio(counts("extract.extract_stream", 0) / 1e6, t("extract.extract_stream")),
            "extract.out_mbps": _ratio(counts("extract.extract_stream", 1) / 1e6, t("extract.extract_stream")),
            "extract.ratio": ext.get("ratio", 0.0),
            "extract.min_entropy.s": t("extract.min_entropy"),
            "randtests.run_battery.s": t("randtests.run_battery"),
            "randtests.bits_per_s": _ratio(counts("randtests.run_battery", 0), t("randtests.run_battery")),
            "pipeline.run_pipeline.self_s": s.get("pipeline.run_pipeline", {}).get("self_s", 0.0),
            "pipeline.stage_span_gap_s": max(
                (abs(spans_by_stage.get(k, 0.0) - v) for k, v in stage_s.items()), default=0.0),
            "cli.main.self_s": self_sum("cli."),
            "trace.overhead_s": (end - first) * span_cost_s,
        }
        for stage in STAGES:
            row[f"pipeline.stage_s.{stage}"] = stage_s.get(stage, 0.0)
        rows.append(row)
    out = {name: _median(row[name] for row in rows) for name in (rows[0] if rows else {})}
    battery = [r["battery_passed"] for r in records if "battery_passed" in r]
    out["randtests.passed_share"] = _ratio(sum(battery), len(battery))
    return out


def iterate(workload, tracer, d: Path, seed: int) -> dict:
    """Set up, run (timed, and traced when ``tracer`` is given) and check
    one iteration; an exception anywhere is recorded as its ``error``."""
    rec: dict = {"seed": seed}
    try:
        t0 = time.perf_counter()
        workload.prepare(d, seed, small=False)
        rec["prepare_s"] = time.perf_counter() - t0
        if tracer:
            first = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run(d, seed, small=False)
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
                rec["spans"] = (first, len(tracer.spans))
        rec["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        rec.update(workload.check(d, seed))
        rec["check_s"] = time.perf_counter() - t0
    except Exception:  # includes CheckFailed; the loop goes on with the next input
        rec["error"] = traceback.format_exc(limit=3)
    return rec


def run(args) -> int:
    t_start = time.perf_counter()
    if not (SRC / "qrng_forge" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'qrng_forge'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import qrng_forge
    import spans
    from workloads import WORKLOADS, derive_seed

    modules = [getattr(qrng_forge, m) for m in MODULES]
    import_s = time.perf_counter() - t_start

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench_results"
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    tracer = (
        spans.Tracer(modules, methods=[(qrng_forge.timetags.TagStream, "channel_times")],
                     counters=COUNTERS)
        if args.trace else None
    )
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](work, args.seed)
        try:
            warm = workload.warm_up()
        except Exception:  # the program failed on the small input: nothing below is reproducible
            warm = {"first": traceback.format_exc(limit=3), "repeat": None}
        warm_s = time.perf_counter() - t0

        records: list[dict] = []
        loop_start = time.perf_counter()
        while not records or time.perf_counter() - loop_start < args.seconds:
            d = work / f"it{len(records)}"
            d.mkdir()
            records.append(iterate(workload, tracer, d, derive_seed(args.seed, 0, len(records))))
            shutil.rmtree(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reproducible = warm["first"] == warm["repeat"]
    ok = [r for r in records if "error" not in r] if reproducible else []
    failed = len(records) - len(ok)
    timed = [r for r in records if "wall_s" in r]
    setup_s = import_s + warm_s + _median(r["prepare_s"] for r in records if "prepare_s" in r)

    if tracer:
        metrics = layer_metrics(records, tracer.spans, spans.wrapper_cost())
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": _median(r["wall_s"] for r in timed),
            "realtime_x": _median(r["acquisition_s"] / r["wall_s"] for r in ok),
            "out_mbps": _median(r["out_bits"] / r["wall_s"] / 1e6 for r in ok),
            "peak_rss_mib": next((r["peak_rss_mib"] for r in records if "peak_rss_mib" in r), 0.0),
            "pass_ratio": len(ok) / len(records),
        }
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(units.keys() ^ metrics.keys())}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "iterations": len(records),
        "wall_s_samples": [r["wall_s"] for r in timed],
        "fail_ratio": failed / len(records),
        "setup": {"import_s": import_s, "warm_up_s": warm_s},
        "peak_rss_mib_at_exit": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reproducible": reproducible,
        "warm_up_digests": warm["first"],
        "inputs": [
            {k: r[k] for k in ("seed", "tags_per_channel", "multi_tag_cluster_share", "raw") if k in r}
            for r in records
        ],
        "errors": [r["error"] for r in records if "error" in r],
    }
    full = {**info, "records": records, "spans": tracer.dump() if tracer else []}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(full, default=str))
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
