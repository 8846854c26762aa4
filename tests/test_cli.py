import json
import os

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
