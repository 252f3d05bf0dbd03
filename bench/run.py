"""Benchmark of mgdesign design studies.

Usage, from the repository root::

    python3 bench/run.py --workload lattice_search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: lattice_search, policy_front, sensitivity_study, pareto_archive
(see inputs.py and NOTES.md).  Each repetition runs the workload's CLI
calls through ``mgdesign.cli.main`` in one fresh process with ``--jobs 1``
(worker.py), then checks every output file.  Repetitions continue until
``--seconds`` is used up; set-up is also probed in separate fresh
processes.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics, with ``--trace 1`` the per-layer metrics,
which come from repetitions with spans (spans.py) interleaved with
untraced ones that give the tracing overhead.  The environment, a
calibration-loop drift record and every repetition are written to
``bench/out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 10
#: Untraced runs take at least one repetition (policy_front takes ~25 s,
#: so it gets one); traced runs need one untraced and two traced repetitions.
MIN_REPS = {False: 1, True: 3}
#: A run must end within 180 s; no repetition starts after this.
RUN_LIMIT_S = 150.0

END_TO_END = (("setup_s", "s"), ("study_ref_s", "s"), ("items_per_ref_s", "1/s"), ("peak_rss_mb", "MB"))
#: The calibration loops' times at the reference speed: the usual times on
#: the machine where the benchmark was defined.  ``study_ref_s`` and
#: ``setup_s`` are scaled to that speed (see NOTES.md, "Noise").
REFERENCE_CALIBRATION_S = 0.010
SETUP_REFERENCE_CALIBRATION_S = 0.10
PER_LAYER = spans.LAYER_METRICS + (("trace.overhead_s", "s"),)
#: ``items_per_s`` counts requested evaluations, except on pareto_archive
#: where it counts ranked result rows.
ITEM_NAMES = {"pareto_archive": "points_per_s"}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform()}


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict, rundir: Path, tag: str, deadline: float) -> dict:
    """Run worker.py on ``spec``; its result plus ``setup_wall_s``, the time
    from spawning the process to the end of its set-up less the calibration
    loop before the set-up, and ``setup_s``, that time at the reference speed."""
    spec_path, result_path = rundir / f"{tag}.spec.json", rundir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MGDESIGN_")}
    env["PYTHONPATH"] = str(SRC)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 5.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{tag}: worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"{tag}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_wall_s"] = result["entered"] - started + result["setup_end"] - result["setup_start"]
    result["setup_s"] = result["setup_wall_s"] * statistics.fmean(
        SETUP_REFERENCE_CALIBRATION_S / c for c in result["setup_calibration_s"])
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 reference: dict) -> dict:
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S + 20.0
    rundir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    study = inputs.build(workload, seed, rundir / "study", tiny)
    spec = {"src": str(SRC), "calls": study.calls, "traces": study.traces, "trace": False}
    probes = [run_worker({"src": str(SRC), "calls": [], "traces": [], "trace": False},
                         rundir, f"setup{i}", deadline)
              for i in range(1 if tiny else SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    setup_walls = [p["setup_wall_s"] for p in probes]

    # Traced runs interleave untraced (U) and traced (T) repetitions,
    # U T T U T T ..., at least one U and two T.
    reps: list[dict] = []
    all_checks = checks.Checks()
    loop_start = time.monotonic()
    while True:
        traced = trace and len(reps) % 3 != 0
        shutil.rmtree(Path(study.expect["out"]), ignore_errors=True)
        rep_spec = dict(spec, trace=traced, spans_path=str(rundir / f"spans_rep{len(reps)}.json"))
        try:
            result = run_worker(rep_spec, rundir, f"rep{len(reps)}", deadline)
        except WorkerError as exc:
            all_checks.add("worker completes", False, str(exc))
            break
        try:
            rep_checks = checks.check(study, result, reference)
        except (ValueError, KeyError, IndexError) as exc:  # unparseable output
            rep_checks = checks.Checks()
            rep_checks.add("outputs parse", False, f"{type(exc).__name__}: {exc}")
        all_checks.results += rep_checks.results
        setups.append(result["setup_s"])
        setup_walls.append(result["setup_wall_s"])
        speed = statistics.fmean(REFERENCE_CALIBRATION_S / c for c in result["calibration_s"])
        reps.append({"traced": traced, "study_s": result["study_s"], "study_ref_s": result["study_s"] * speed,
                     "calibration_s": result["calibration_s"],
                     "items": study.items + checks.refine_evaluations(result["stdout"]),
                     "peak_rss_mb": result["peak_rss_mb"], "setup_s": result["setup_s"],
                     "errors": result["errors"], "layers": result.get("layers"),
                     "unwrapped": result.get("unwrapped", []),
                     "failed_checks": rep_checks.failed})
        now = time.monotonic()
        per_rep = (now - loop_start) / len(reps)
        enough = len(reps) >= MIN_REPS[trace] and now - loop_start + per_rep > seconds
        if enough or now - run_start + per_rep > RUN_LIMIT_S:
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not plain or (trace and len(traced_reps) < 2):
        all_checks.add("enough repetitions ran", False, f"{len(plain)} untraced, {len(traced_reps)} traced")
    # Study times are the run's totals over its repetitions, not medians:
    # the host's speed moves in phases of seconds, and a median of a handful
    # of repetitions jumps between phases where the total averages over them.
    metrics: dict[str, float] = {}
    if plain:
        items = sum(r["items"] for r in plain)
        study_total = sum(r["study_s"] for r in plain)
        ref_total = sum(r["study_ref_s"] for r in plain)
        metrics = {
            "setup_s": statistics.median(setups),
            "setup_wall_s": statistics.median(setup_walls),
            "study_s": study_total / len(plain),
            "items_per_s": items / study_total,
            "study_ref_s": ref_total / len(plain),
            "items_per_ref_s": items / ref_total,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if traced_reps:
        layers = [r["layers"] for r in traced_reps]
        for name, _ in spans.LAYER_METRICS:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        counts = [[layer[name] for name in spans.EXACT_COUNTS] for layer in layers]
        all_checks.add("counts repeat exactly between traced repetitions",
                       all(c == counts[0] for c in counts), str(counts))
        if plain:
            metrics["trace.overhead_s"] = (statistics.fmean(r["study_ref_s"] for r in traced_reps)
                                           - metrics["study_ref_s"])
    attempted, failed = len(all_checks.results), len(all_checks.failed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "variant": study.variant, "calls": study.calls, "environment": environment(),
              "setup_s_samples": setups, "setup_wall_s_samples": setup_walls, "reps": reps,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": all_checks.failed[:50]}
    (rundir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload."""
    m, workload = record["metrics"], record["workload"]
    n_traced = sum(r["traced"] for r in record["reps"])
    calibration = [c for r in record["reps"] for c in r["calibration_s"]]
    print(f"{workload} seed={record['seed']} variant={record['variant']} "
          f"reps={len(record['reps'])} (traced {n_traced}) "
          f"calibration={statistics.median(calibration):.4f} s (reference {REFERENCE_CALIBRATION_S} s)")
    if "study_s" in m:
        item = ITEM_NAMES.get(workload, "evals_per_s")
        print(f"  setup_wall_s     {m['setup_wall_s']:.4f} s")
        print(f"  setup_s          {m['setup_s']:.4f} s")
        print(f"  study_s          {m['study_s']:.4f} s")
        print(f"  {item:<16} {m['items_per_s']:.4f} 1/s")
        print(f"  study_ref_s      {m['study_ref_s']:.4f} s")
        print(f"  {item.replace('_per_s', '_per_ref_s'):<16} {m['items_per_ref_s']:.4f} 1/s")
        print(f"  peak_rss_mb      {m['peak_rss_mb']:.2f} MB")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  error_rate       {rate:.4g} ({record['failed']} of {record['attempted']} checks failed)")
    for name, detail in ((f[0], f[2]) for f in record["failures"][:5]):
        print(f"    FAILED {name}: {detail}")
    if n_traced:
        unwrapped = sorted({n for r in record["reps"] for n in r["unwrapped"]})
        if unwrapped:
            print(f"  not found, so not traced: {', '.join(unwrapped)}")
        for name, unit in PER_LAYER:
            if name in m:
                print(f"  {name:<32} {m[name]:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few designs, episodes and rows")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mgdesign" / "__init__.py").is_file():
        print(f"error: no mgdesign sources at {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny, reference)
                   for w in workloads]
    except WorkerError as exc:  # set-up itself failed: nothing was measured
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, unit in wanted:
            if name not in record["metrics"]:
                print(f"error: {record['workload']} measured no {name}", file=sys.stderr)
                return 1
            metrics[prefix + name] = {"value": record["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
