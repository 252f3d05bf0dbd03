"""One repetition of a benchmark workload, in a fresh process.

Usage: ``python3 worker.py SPEC.json RESULT.json`` with ``src`` of the
checkout on ``PYTHONPATH``.  The worker imports ``mgdesign`` and loads the
bundled scenario (the set-up a fresh CLI process pays), notes the
monotonic clock, and then runs the study's CLI calls through
``mgdesign.cli.main`` in this one process, with spans when the spec asks
for them.  A calibration loop runs just before and just after the set-up,
and a shorter one just before the study and every ``SAMPLE_EVERY_S``
during it.  A spec with no calls measures set-up only.

Everything else is imported after the clock is read, so set-up time
covers the package and the scenario only.
"""

import sys
import time

ENTERED = time.monotonic()

#: Iterations of the calibration loop during the study (about 0.01 s on the
#: machine where the benchmark was defined) and around the set-up (0.1 s).
CALIBRATION_LOOP = 100_000
SETUP_CALIBRATION_LOOP = 1_000_000
#: Seconds between calibration samples during the study.
SAMPLE_EVERY_S = 0.5


def calibrate(iterations: int = CALIBRATION_LOOP) -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs right now."""
    started = time.perf_counter()
    x = 0.0
    for i in range(iterations):
        x += (i % 7) * 0.5
    return time.perf_counter() - started


def main() -> int:
    setup_calibration_s = [calibrate(SETUP_CALIBRATION_LOOP)]
    setup_start = time.monotonic()
    from mgdesign.scenario import bundled_scenario

    import mgdesign.cli  # noqa: F401  (part of the measured set-up)

    bundled_scenario()
    setup_end = time.monotonic()
    setup_calibration_s.append(calibrate(SETUP_CALIBRATION_LOOP))

    import json
    from pathlib import Path

    import mgdesign

    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    package = Path(mgdesign.__file__).resolve()
    if Path(spec["src"]).resolve() not in package.parents:
        print(f"worker: imported mgdesign from {package}, not from {spec['src']}", file=sys.stderr)
        return 3
    result = {"entered": ENTERED, "setup_start": setup_start, "setup_end": setup_end,
              "setup_calibration_s": setup_calibration_s}
    if spec["calls"]:
        result.update(_study(spec))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _study(spec: dict) -> dict:
    import contextlib
    import io
    import json
    import resource
    import signal
    import traceback

    from mgdesign import cli

    import spans

    recorder, missing = None, []
    if spec["trace"]:
        recorder = spans.Recorder()
        missing = recorder.install()
    codes, errors = [], []
    stdout = io.StringIO()
    # One calibration sample just before the study and one every
    # SAMPLE_EVERY_S of it, from a timer signal; the samples' time is
    # taken out of the study time.
    calibration_s = [calibrate()]
    signal.signal(signal.SIGALRM, lambda signum, frame: calibration_s.append(calibrate()))
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    with contextlib.redirect_stdout(stdout):
        for request, argv in enumerate(spec["calls"]):
            if recorder is not None:
                recorder.request = request
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is a failed check, not the end of the run
                codes.append(None)
                errors.append(traceback.format_exc())
    signal.setitimer(signal.ITIMER_REAL, 0)
    study_s = time.perf_counter() - started - sum(calibration_s[1:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()
    result = {"study_s": study_s, "calibration_s": calibration_s,
              "peak_rss_mb": peak_rss_mb, "codes": codes,
              "errors": errors, "stdout": stdout.getvalue(),
              "traces": [_check_trace(path, design) for path, design in spec["traces"]]}
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["unwrapped"] = missing
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": [s[:5] for s in recorder.spans]}, fh)
    return result


def _check_trace(path: str, design: str) -> dict:
    """Re-simulate a design whose trace the study wrote; return its worst
    hourly balance residual and the worst difference from the CSV."""
    import csv

    import numpy as np

    import spans
    from mgdesign.dispatch import Design, simulate_year
    from mgdesign.scenario import bundled_scenario

    trace = simulate_year(bundled_scenario(), Design.from_string(design))
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            table = np.array([[float(v) for v in row] for row in reader])
        expected = np.column_stack([getattr(trace, name) for name in header])
    except (OSError, StopIteration, ValueError, AttributeError) as exc:
        return {"path": path, "error": f"{type(exc).__name__}: {exc}"}
    if table.shape != expected.shape:
        return {"path": path, "error": f"shape {table.shape}, expected {expected.shape}"}
    return {"path": path, "rows": len(table), "balance_max_kw": spans.balance_max_kw(trace),
            "csv_max_diff": float(np.abs(table - expected).max())}


if __name__ == "__main__":
    sys.exit(main())
