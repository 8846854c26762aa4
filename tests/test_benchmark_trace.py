"""One traced repetition of each benchmark workload, checked as run.py checks it.

The child runs in its own interpreter, so the tracer never patches this
process.  Its outputs must pass `workloads.check` against `reference.json`,
and its per-layer metrics must meet `predictions.json`: a wrapper that fires
where a bypass is predicted, or stays silent where the workload exercises
it, is a failed prediction.  Every per-layer metric that `BENCHMARK.json`
declares must have a value (`check_predictions` passes over a None), except
`trace.overhead_s`, which run.py computes from plain and traced runs
together, and the tracer must report no unavailable wrapper.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"


@pytest.fixture(scope="module")
def bench():
    """run.py and workloads.py, imported as run.py itself imports workloads."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ("certify", "recurrence", "selberg", "weil"))
def test_traced_workload_is_correct_and_predicted(workload, bench):
    run, workloads = bench
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               BENCH_SRC=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--workload", workload,
                           "--seed", "12", "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ops = workloads.invocations(workload, 12)
    assert len(rep["ops"]) == len(ops)
    for op, res in zip(ops, rep["ops"]):
        outcome = workloads.check(op, res["exit"], res["stdout"], refs)
        assert outcome.failed == 0, outcome.problems
    assert rep["trace"]["unavailable"] == []
    metrics = run.layer_metrics(rep)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = [m["name"] for m in declared
               if m["name"] != "trace.overhead_s" and metrics.get(m["name"]) is None]
    assert missing == []
    _, problems = run.check_predictions(workload, metrics)
    assert problems == []
