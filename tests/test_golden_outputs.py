"""Golden bytes: every benchmark operation and acceptance-11 command prints
exactly what `golden_outputs.json` recorded.

The commands run in process with `CliRunner`, as acceptance 11 runs them,
and the benchmark's `workloads.py` is imported read-only, as
`test_benchmark_trace.py` imports it.  A change that moves a byte must
re-record the file and say which lines moved and why:

    PYTHONPATH=src python3 tests/test_golden_outputs.py --record
"""

import importlib
import json
import pathlib
import sys

from test_acceptance import ACCEPTANCE_COMMANDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")
WORKLOADS = ("certify", "recurrence", "selberg", "weil")
SEED = 12


def _commands():
    """(key, argv) for the four workloads' operations and acceptance 11."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    cmds = [(f"{w}/{op.label}", op.argv) for w in WORKLOADS
            for op in workloads.invocations(w, SEED)]
    cmds += [(" ".join(argv), argv) for argv in ACCEPTANCE_COMMANDS]
    return cmds


def _outputs():
    from click.testing import CliRunner

    from hilbertpoincare.cli import main
    runner = CliRunner(env={"POINCARE_CACHE_DIR": None})
    out = {}
    for key, argv in _commands():
        r = runner.invoke(main, argv)
        out[key] = {"exit": r.exit_code, "stdout": r.stdout}
    return out


def test_outputs_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = _outputs()
    assert sorted(outputs) == sorted(golden)
    moved = [key for key in golden if outputs[key] != golden[key]]
    assert moved == [], {key: (golden[key], outputs[key]) for key in moved}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
