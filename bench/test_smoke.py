"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``
(about a minute).  The tier-1 suite does not collect it: ``testpaths``
names ``tests`` only.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
import spans

RUN = Path(__file__).resolve().parent / "run.py"


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=300, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_pareto_archive_fronts_are_exact_and_match_the_oracle(tmp_path):
    path = tmp_path / "archive.csv"
    shells = inputs.write_pareto_archive(path, seed=5, rows=300, fronts=6)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    m = checks.minimization_matrix(rows)
    assert len(rows) == 300
    assert checks.oracle_ranks(m).tolist() == shells
    assert len({tuple(r) for r in m}) < len(m), "the archive should hold exact duplicates"


def test_oracle_keeps_duplicates_and_ties():
    m = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 0.5], [3.0, 3.0]])
    assert checks.oracle_ranks(m).tolist() == [0, 0, 1, 0, 2]


def test_self_time_subtracts_direct_children():
    tree = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
            ["c", 2.0, 3.0, 1, 0, None], ["bench.hook", 5.0, 6.0, 0, 0, None]]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_seeds_pick_inputs_deterministically(tmp_path):
    a = inputs.build("lattice_search", 3, tmp_path / "a")
    b = inputs.build("lattice_search", 3, tmp_path / "b")
    assert a.variant == b.variant and a.calls[0][:3] == b.calls[0][:3]
    assert inputs.build("policy_front", 4, tmp_path / "c").calls[0][-1] == "4"


def test_every_workload_runs_untraced_at_tiny_size():
    lines, result = _run("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 20
    for workload in inputs.WORKLOADS:
        for name in ("setup_s", "study_ref_s", "items_per_ref_s", "peak_rss_mb"):
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0
    assert any("error_rate" in line for line in lines)


def test_traced_run_reports_every_layer_metric():
    _, result = _run("--workload", "policy_front", "--seed", "42", "--seconds", "1", "--trace", "1", "--tiny")
    assert result["correct"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS} | {"trace.overhead_s"}
    assert metrics["metrics.sims_per_eval"] == 1.0
    assert metrics["metrics.eval_calls"] == 12
    assert metrics["metrics.distinct_ratio"] == metrics["optimize.rl_distinct_ratio"]


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "pareto_archive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
