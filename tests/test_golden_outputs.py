"""Golden bytes: every benchmark operation, acceptance-11 command and
command of `EXTRA_COMMANDS` prints exactly what `golden_outputs.json`
recorded.

The commands run in process with `CliRunner`, as acceptance 11 runs them,
and the benchmark's `workloads.py` is imported read-only, as
`test_benchmark_trace.py` imports it.  A change that moves a byte must
re-record the file and say which lines moved and why:

    PYTHONPATH=src python3 tests/test_golden_outputs.py --record
"""

import hashlib
import importlib
import json
import pathlib
import sys

import pytest

from test_acceptance import ACCEPTANCE_COMMANDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")
WORKLOADS = ("certify", "recurrence", "selberg", "weil")
SEED = 12
# Fields other than Q(sqrt5): the constants ledger (c2_constant and the
# chi_D sum of zeta_F), the tail's ideal counts and hecke-check's draws;
# then the principal generators: delta and a unit generator.
EXTRA_COMMANDS = (
    [["thresholds", "--d", str(d), "--k", "8"] for d in (2, 3, 6, 13, 17, 997)]
    + [["thresholds", "--d", "13", "--k", "12", "--level", "3", "--eta", "1/3"]]
    + [["certify", "--d", str(d), "--k", "8", "--mu", "1", "--max-x", "300",
        "--max-m", "6"] for d in (2, 13, 17)]
    + [["certify", "--d", "2", "--k", "8", "--mu", "(3,1)", "--max-x", "600",
        "--max-m", "6"]]
    + [["hecke-check", "--d", str(d), "--samples", "50"] for d in (2, 3, 13)]
    # delta on both sides of the fu_norm = +-1 split, and a unit omega as the
    # modulus generator and as the level
    + [["field-info", "--d", str(d)] for d in (3, 6, 10, 13, 17, 997)]
    + [["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "1/delta", "--c", "w"]]
    + [["certify", "--d", "5", "--k", "8", "--mu", "1", "--level", "w",
        "--max-x", "300", "--max-m", "6"]]
    # the full Selberg grid, and a sweep that skips most of its triples
    + [["selberg-check", "--d", "13", "--max-norm-q", "60", "--grid", "full"],
       ["selberg-check", "--d", "10", "--max-norm-q", "30", "--grid", "full"]]
    # units too large for a search of the generators' box
    + [["field-info", "--d", str(d)] for d in (193, 241)]
    + [["certify", "--d", "193", "--k", "8", "--mu", "1", "--max-x", "300",
        "--max-m", "4"]]
    # N_{nu,mu} over two ramified primes (d = 10), an inert 2 (d = 13) and
    # caps <= 0 at the ramified prime above 2 (d = 2, 3)
    + [["weil-audit", "--d", str(d), "--samples", "300", "--seed", seed]
       for d, seed in ((10, "5"), (13, "5"), (2, "7"), (3, "7"))])


def _commands():
    """(key, argv) for the four workloads' operations, acceptance 11 and
    the extra fields."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    cmds = [(f"{w}/{op.label}", op.argv) for w in WORKLOADS
            for op in workloads.invocations(w, SEED)]
    cmds += [(" ".join(argv), argv) for argv in ACCEPTANCE_COMMANDS + EXTRA_COMMANDS]
    return cmds


def _outputs():
    from click.testing import CliRunner

    from hilbertpoincare.cli import main
    runner = CliRunner()
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


def _elt(x):
    return [x.a, x.b, x.den]


# sha256 of the draw sequence of each command, recorded before the ideal
# counts moved to chi_D: the printed bytes of these commands do not show
# which moduli, elements or ideals were drawn.
DRAW_DIGESTS = {
    "weil-audit --d 5 --samples 40 --seed 11":
        "232f3fc419fd8b5007a5a4b2be88978379477779497fbc9008ff346743b5aaa0",
    "hecke-check --d 5 --k 8 --level 1 --samples 50":
        "726e46a1fbe7797a978d170ef8b2fcc9ea9ec715616fc21f31599e64ba0fb3a9",
}


def _draws(monkeypatch, argv):
    """Each draw of `weil-audit` (modulus, c, nu, mu) or `hecke-check`
    (m, q and the support of f), in order, with the command's exit code."""
    from click.testing import CliRunner

    from hilbertpoincare import cli
    draws = []
    query, pairing = cli.KloostermanQuery, cli.pairing

    def record_query(F, nu, mu, modulus, c):
        draws.append([list(modulus.key()), _elt(c), _elt(nu), _elt(mu)])
        return query(F, nu, mu, modulus, c)

    def record_pairing(ctx, m, q, f):
        draws.append([list(m.key()), list(q.key()),
                      sorted(list(i.key()) for i in f.support)])
        return pairing(ctx, m, q, f)

    monkeypatch.setattr(cli, "KloostermanQuery", record_query)
    monkeypatch.setattr(cli, "pairing", record_pairing)
    r = CliRunner().invoke(cli.main, argv)
    return r.exit_code, draws


@pytest.mark.parametrize("key", sorted(DRAW_DIGESTS))
def test_draw_sequences_match_golden_digests(monkeypatch, key):
    code, draws = _draws(monkeypatch, key.split())
    assert code == 0 and draws
    digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
    assert digest == DRAW_DIGESTS[key], (key, len(draws), digest)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
