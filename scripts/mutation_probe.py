"""Run A5 through ``evaluate`` and ``lcoe-sweep`` on single-field mutations
of the bundled scenario and count outcomes.

Each run copies the bundled data, sets one key of ``scenario.yaml`` (drawn
with ``random.Random(seed)``) to one of ``"x"``, ``[1]``, ``true``, ``null``,
``2.5``, ``-1``, ``0``, ``{a: 1}``, ``.nan``, ``1e308``, ``1e-300`` or ``7``, or renames
the key, then runs ``mgdesign evaluate`` and ``mgdesign lcoe-sweep`` on A5
in this process.  Every run of ``evaluate`` should end in exit 2 or in
finite objectives, and every sweep in exit 2 or exit 0 (a sweep raises on
a non-finite LCOE, so exit 0 means finite curves).  The script prints each
command's count of each outcome under the command's name, and the mutations
behind tracebacks, hangs (over 20 s) and exit-0 runs with a non-finite
objective, and exits 1 if there was any.

    PYTHONPATH=src python scripts/mutation_probe.py [runs] [seed]
"""

from __future__ import annotations

import collections
import contextlib
import copy
import csv
import io
import math
import random
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import yaml

from mgdesign.cli import main
from mgdesign.metrics import METRIC_FIELDS
from mgdesign.scenario import bundled_data_path

A5 = "pv=418,wt=123,dg=0,bess=704,conv=255"
#: The outcomes each command should end in.
EXPECTED = {"evaluate": ("exit 2", "exit 0, finite"), "lcoe-sweep": ("exit 2", "exit 0")}
RENAME = object()
VALUES = ["x", [1], True, None, 2.5, -1, 0, {"a": 1}, math.nan, 1e308, 1e-300, 7, RENAME]


def key_paths(doc: dict, prefix: tuple = ()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is RENAME:
        node[f"{path[-1]}_renamed"] = node.pop(path[-1])
    else:
        node[path[-1]] = value
    return doc


def _timeout(*_):
    raise TimeoutError


def outcome_of(command: str, scenario_path: Path, out: Path) -> str:
    """Run ``command`` on A5 and name how it ended."""
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--scenario", str(scenario_path), "--design", A5, "--out", str(out)])
    except TimeoutError:
        return "hang"
    except Exception as exc:
        return f"traceback {type(exc).__name__}"
    finally:
        signal.alarm(0)
    if code != 0 or command != "evaluate":
        return f"exit {code}"
    with open(out / "metrics.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    finite = all(math.isfinite(float(row[name])) for name in METRIC_FIELDS[:4])
    return "exit 0, finite" if finite else "exit 0, non-finite objective"


def run(runs: int, seed: int, workdir: Path) -> dict[str, collections.Counter]:
    data = workdir / "data"
    shutil.copytree(bundled_data_path(), data)
    scenario_path, out = data / "scenario.yaml", workdir / "out"
    original = yaml.safe_load(scenario_path.read_text(encoding="utf-8"))
    paths = list(key_paths(original))
    rng = random.Random(seed)
    outcomes = {command: collections.Counter() for command in EXPECTED}
    signal.signal(signal.SIGALRM, _timeout)
    for _ in range(runs):
        path, value = rng.choice(paths), rng.choice(VALUES)
        label = ".".join(map(str, path)) + (" renamed" if value is RENAME else f" = {value!r}")
        scenario_path.write_text(yaml.safe_dump(mutated(original, path, value)), encoding="utf-8")
        for command, counts in outcomes.items():
            outcome = outcome_of(command, scenario_path, out)
            counts[outcome] += 1
            if outcome not in EXPECTED[command]:
                print(f"{command}: {outcome}: {label}")
    return outcomes


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = run(runs, seed, Path(tmp))
    for command, counts in outcomes.items():
        print(command)
        for outcome, count in sorted(counts.items()):
            print(f"{count:5d}  {outcome}")
    sys.exit(1 if any(set(counts) - set(EXPECTED[command]) for command, counts in outcomes.items()) else 0)
