import json
import os

import pytest
from click.testing import CliRunner

from hilbertpoincare.cli import main


def run(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def test_field_info():
    r = run(["field-info", "--d", "5"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["D"] == 5 and doc["delta"] == {"a": "2", "b": "1"}
    assert doc["narrow_h1"] is True
    r2 = run(["field-info", "--d", "2"])
    assert json.loads(r2.output)["delta"] == {"a": "4", "b": "2"}


def test_field_info_not_squarefree():
    r = CliRunner().invoke(main, ["field-info", "--d", "12"])
    assert r.exit_code == 2


def test_kloosterman_command():
    r = run(["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0",
             "--c", "2"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["exact"]["value_as_rational_if_real"] == -1
    assert doc["exact"]["order"] == 2
    assert float(doc["float"]["re"][0]) <= -1 <= float(doc["float"]["re"][1])


def test_element_grammar():
    r = run(["kloosterman", "--d", "5", "--nu", "(3,-1)/5", "--mu", "0",
             "--c", "2"])
    assert json.loads(r.output)["exact"]["value_as_rational_if_real"] == -1
    r2 = run(["kloosterman", "--d", "5", "--nu", "1+1*w", "--mu", "w",
              "--c", "1"])
    assert r2.exit_code == 0


def test_selberg_check_cli():
    r = run(["selberg-check", "--d", "5", "--max-norm-q", "25"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["status"] == "all hold" and doc["failures"] == 0


def test_weil_audit_cli():
    r = run(["weil-audit", "--d", "5", "--samples", "30", "--seed", "7"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["violations"] == 0 and float(doc["max_ratio"]) <= 1
    # same seed, same bytes
    r2 = run(["weil-audit", "--d", "5", "--samples", "30", "--seed", "7"])
    assert r2.output == r.output


def test_certify_cli_and_exit_codes(tmp_path):
    r = run(["certify", "--d", "5", "--k", "8", "--level", "1", "--mu", "1"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["verdict"] == "NONZERO" and doc["schema"] == "v1"
    assert "ledger" in doc and "finite_part" in doc and "tail" in doc
    assert set(doc["cutoffs"]) == {"X", "M", "eta"}
    # an exhausted budget must exit 3
    r3 = CliRunner().invoke(main, ["certify", "--d", "5", "--k", "8",
                                   "--mu", "1", "--max-x", "1", "--max-m", "0"])
    assert r3.exit_code == 3
    assert json.loads(r3.output)["verdict"] == "INCONCLUSIVE"
    assert json.loads(r3.output)["reason"] == "budget exhausted"
    assert "reason" not in doc


def test_certify_budget_widens_enclosure():
    # rings over the residue budget take the trivial bound |S| <= N(m)
    r = CliRunner().invoke(main, ["certify", "--d", "5", "--k", "6", "--mu", "1",
                                  "--residue-budget", "10", "--max-x", "200",
                                  "--max-m", "4"])
    assert r.exit_code == 3
    assert json.loads(r.output)["verdict"] == "INCONCLUSIVE"


def test_package_errors_exit_2_without_traceback():
    for args in (["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0",
                  "--c", "2", "--residue-budget", "2"],
                 ["weil-audit", "--d", "5", "--samples", "20",
                  "--residue-budget", "5"]):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output and "budget" in r.output


def test_negative_cutoffs_exit_2():
    for args in (["certify", "--d", "5", "--k", "8", "--mu", "1",
                  "--max-x", "-5"],
                 ["certify", "--d", "5", "--k", "8", "--mu", "1",
                  "--max-m", "-1"],
                 ["recurrence", "--d", "5", "--k", "8", "--p", "(3,2)",
                  "--x", "100", "--big-m", "-1"],
                 ["recurrence", "--d", "5", "--k", "8", "--p", "(3,2)",
                  "--x", "-100"]):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output and "cutoffs" in r.output


def test_residue_budget_ignores_history():
    # a value remembered from a default-budget call must not bypass the budget
    capped = ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0",
              "--c", "2", "--residue-budget", "2"]
    assert CliRunner().invoke(main, capped).exit_code == 2
    assert CliRunner().invoke(main, capped[:-2]).exit_code == 0
    assert CliRunner().invoke(main, capped).exit_code == 2


def test_thresholds_cli():
    r = run(["thresholds", "--d", "5", "--k", "8", "--level", "1",
             "--eta", "1/2"])
    doc = json.loads(r.output)
    assert float(doc["threshold_thm32"]) > 0
    assert float(doc["threshold_thm35"]) > 0
    assert "C" in doc["ledger"] and "C8" in doc["ledger"]


def test_recurrence_cli():
    r = CliRunner().invoke(main, ["recurrence", "--d", "5", "--k", "8",
                                  "--p", "(3,2)", "--x", "300", "--big-m", "3"])
    assert r.exit_code in (0, 3)
    doc = json.loads(r.output)
    assert doc["status"] in ("consistent", "inconclusive")


def test_hecke_check_cli():
    r = run(["hecke-check", "--d", "5", "--k", "8", "--level", "1",
             "--samples", "60"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["symmetry_failures"] == 0 and doc["identity_failures"] == 0


def test_cache_cold_warm_identical(tmp_path):
    cache = str(tmp_path / "cache")
    args = ["certify", "--d", "5", "--k", "8", "--mu", "1",
            "--cache-dir", cache]
    cold = run(args)
    assert cold.exit_code == 0
    assert os.path.exists(os.path.join(cache, "kloosterman-v1.jsonl"))
    warm = run(args)
    assert warm.output == cold.output


def test_cache_corrupt_lines_tolerated(tmp_path):
    cache = str(tmp_path / "cache")
    args = ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "1/delta",
            "--c", "2", "--cache-dir", cache]
    first = run(args)
    path = os.path.join(cache, "kloosterman-v1.jsonl")
    with open(path, "a") as fh:
        fh.write("{this is not json\n")
        fh.write('{"v":"v0","key":"old","val":{}}\n')
    second = run(args)
    assert second.output == first.output
    from hilbertpoincare.cache import KloostermanStore
    store = KloostermanStore(cache)
    assert store.corrupt_lines == 2 and len(store) >= 1


# v1 store lines hold raw (unreduced) coefficients; the first is
# S(1/delta, 1/delta; 4 + omega) over Q(sqrt5)
STORE_LINE_19 = ('{"v":"v1","key":"[5,[5,19,4,1],[5,19],[18,19],[5,19],[18,19]]",'
                 '"val":{"order":19,"coeffs":{"3":"2","4":"2","5":"2","7":"2","9":"1",'
                 '"10":"1","12":"2","14":"2","15":"2","16":"2"}}}')
STORE_LINE_2 = ('{"v":"v1","key":"[5,[5,2,0,2],[1,2],[0,1],[0,1],[0,1]]",'
                '"val":{"order":2,"coeffs":{"0":"1","1":"2"}}}')


def test_store_lines_keep_their_format(tmp_path):
    cache = str(tmp_path / "cache")
    args = ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "1/delta",
            "--c", "(4,1)", "--cache-dir", cache]
    fresh = run(args)
    assert fresh.exit_code == 0
    path = os.path.join(cache, "kloosterman-v1.jsonl")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == STORE_LINE_19 + "\n"
    old = str(tmp_path / "old")
    os.makedirs(old)
    with open(os.path.join(old, "kloosterman-v1.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(STORE_LINE_19 + "\n" + STORE_LINE_2 + "\n")
    from hilbertpoincare.cache import KloostermanStore
    store = KloostermanStore(old)
    assert store.corrupt_lines == 0 and len(store) == 2
    # the order-2 value is stored unreduced: 1 + 2*(-1) = -1
    assert [v.coeffs for v in store._mem.values()] == [
        [0, 0, 0, 2, 2, 2, 0, 2, 0, 1, 1, 0, 2, 0, 2, 2, 2, 0, 0], [1, 2]]
    assert run(args[:-1] + [old]).output == fresh.output


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": 80, "format": "json"}))
    r = run(["field-info", "--d", "5", "--config", str(cfg)])
    assert r.exit_code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_key": 1}))
    r2 = CliRunner().invoke(main, ["field-info", "--d", "5",
                                   "--config", str(bad)])
    assert r2.exit_code == 2


def test_env_cache_dir(tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("POINCARE_CACHE_DIR", cache)
    r = run(["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0",
             "--c", "2"])
    assert r.exit_code == 0
    assert os.path.exists(os.path.join(cache, "kloosterman-v1.jsonl"))


def test_csv_format():
    import csv
    import io
    r = run(["field-info", "--d", "5", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(r.output)))
    assert len(rows) == 2 and len(rows[0]) == len(rows[1]) >= 6
    assert "narrow_h1" in rows[0]


def test_malformed_hnf_triple_exits_2():
    for args in (["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "1/delta",
                  "--c", "2", "--modulus", "2,5,2"],
                 ["certify", "--d", "5", "--k", "8", "--mu", "1",
                  "--level", "3,1,1"]):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert [ln for ln in r.output.splitlines() if ln.startswith("Error:")]


def test_vacuous_checks_exit_2(tmp_path):
    # zero or negative sample counts, bounds and precisions would check
    # nothing and report success
    for args in (["weil-audit", "--d", "5", "--samples", "-3"],
                 ["weil-audit", "--d", "5", "--samples", "0"],
                 ["hecke-check", "--d", "5", "--samples", "-2"],
                 ["selberg-check", "--d", "5", "--max-norm-q", "-4"],
                 ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0",
                  "--c", "2", "--precision", "-5"]):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": 0}))
    r = CliRunner().invoke(main, ["kloosterman", "--d", "5", "--nu", "1/delta",
                                  "--mu", "0", "--c", "2", "--config", str(cfg)])
    assert r.exit_code == 2 and "precision" in r.output


def _usage_error(args):
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 2, (args, r.output)
    assert isinstance(r.exception, SystemExit), (args, r.exception)
    assert len([ln for ln in r.output.splitlines() if ln.startswith("Error:")]) == 1
    return r.output


CERTIFY = ["certify", "--d", "5", "--k", "8", "--mu", "1"]
THRESHOLDS = ["thresholds", "--d", "5", "--k", "8"]
KLOOSTERMAN = ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0", "--c", "2"]
RECURRENCE = ["recurrence", "--d", "5", "--k", "8", "--p", "(3,2)", "--x", "200",
              "--big-m", "2"]


@pytest.mark.parametrize("args", [
    CERTIFY + ["--eta", "x"],
    THRESHOLDS + ["--eta", "x"],
    ["kloosterman", "--d", "5", "--nu", "1/0", "--mu", "1", "--c", "2"],
    ["certify", "--d", "5", "--k", "8", "--mu", "(1,2)/0"],
    THRESHOLDS + ["--alpha", "1/0"],
])
def test_malformed_values_exit_2(args):
    # a value that does not parse is a usage error, not a traceback
    _usage_error(args)


@pytest.mark.parametrize("doc", [{"precision": "x"}, {"residue_budget": "abc"},
                                 {"residue_budget": 0}, {"residue_budget": -5},
                                 {"format": "xml"}])
def test_malformed_config_values_exit_2(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = _usage_error(KLOOSTERMAN + ["--config", str(cfg)])
    assert next(iter(doc)) in out


@pytest.mark.parametrize("args", [RECURRENCE + ["--residue-budget", "-5"],
                                  KLOOSTERMAN + ["--residue-budget", "0"]])
def test_residue_budget_below_1_exits_2(args):
    # a budget below 1 would refuse every sum and report trivial bounds
    assert "residue-budget" in _usage_error(args)


@pytest.mark.parametrize("text", ["{bad", "5", "null", "[]", '{"cache_dir": 5}'])
def test_malformed_config_file_exits_2(tmp_path, text):
    # not JSON, not an object, or a cache_dir that is not a path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = _usage_error(["field-info", "--d", "5", "--config", str(cfg)])
    assert "Traceback" not in out


@pytest.mark.parametrize("k", ["-4", "0", "1", "2", "3", "5"])
def test_thresholds_weight_outside_the_theorems_exits_2(k):
    # the threshold formulas take their infima over even k >= 4
    assert "even and >= 4" in _usage_error(["thresholds", "--d", "5", "--k", k])


def test_thresholds_weight_4_exits_0():
    r = run(["thresholds", "--d", "5", "--k", "4"])
    assert r.exit_code == 0 and json.loads(r.output)["k"] == 4
