import json
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from mpmath import iv

from hilbertpoincare import cli
from hilbertpoincare.cli import main
from hilbertpoincare.cyclotomic import CyclotomicInteger
from hilbertpoincare.field import make_field
from hilbertpoincare.ideals import IdealHNF
from hilbertpoincare.intervals import (DEFAULT_PREC, dec_str, hi, iv_from_fraction,
                                       lo, prec_guard)
from hilbertpoincare.kloosterman import SelbergTable
from hilbertpoincare.poincare import CoefficientEvaluator, audit_certificate


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


def test_field_info_with_a_large_unit():
    # h+ = 1 decided by the cycle walk, where eps_plus is about 10^13
    r = run(["field-info", "--d", "193"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["narrow_h1"] is True and doc["fu_norm"] == -1


def test_certify_over_a_field_with_a_large_unit():
    # the omitted ideals' unit orbits are bounded whole, so the tail over
    # Q(sqrt 193) is small at the first rung; the printed numbers alone
    # show |c - 1| < 1
    r = run(["certify", "--d", "193", "--k", "8", "--mu", "1"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["verdict"] == "NONZERO" and Fraction(doc["margin"]) > 0
    dist = max(abs(doc["chi"] + Fraction(t) - 1) for t in doc["finite_part"])
    assert dist + Fraction(doc["tail"]) < 1


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
    assert "outside_hypotheses" not in doc


def test_selberg_check_builds_no_fraction_in_the_kloosterman_layer(monkeypatch):
    # queries and enumerations work in integer slope pairs: with the layer's
    # Fraction replaced by a stub that raises, the sweep prints the same bytes
    from hilbertpoincare import kloosterman
    argv = ["selberg-check", "--d", "5", "--max-norm-q", "25"]
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    plain = run(argv)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built in the Kloosterman layer")

    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    monkeypatch.setattr(kloosterman, "Fraction", no_fraction)
    guarded = run(argv)
    assert plain.exit_code == guarded.exit_code == 0
    assert guarded.output == plain.output


def test_selberg_check_cli_reports_fields_outside_the_hypotheses():
    # Q(sqrt 10) has class number 2: the identity is not claimed there
    r = run(["selberg-check", "--d", "10", "--max-norm-q", "3"])
    assert r.exit_code == 0
    assert r.output == ('{"checked":25,"failures":0,"field":"Qsqrt:10","max_norm_q":3,'
                        '"outside_hypotheses":true,"status":"all hold"}\n')


def test_selberg_check_cli_skips_non_principal_divisors(monkeypatch):
    # the triples whose (nu, mu, q) has a non-principal divisor are skipped
    # and counted; before, the sweep stopped at the first with exit 2
    calls, check = [], cli.selberg_check

    def counted(*args, **kw):
        calls.append(args)
        return check(*args, **kw)

    monkeypatch.setattr(cli, "selberg_check", counted)
    r = run(["selberg-check", "--d", "10", "--max-norm-q", "30"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["outside_hypotheses"] is True and doc["status"] == "all hold"
    assert doc["failures"] == 0 and doc["skipped"] > 0 and doc["checked"] > 0
    assert doc["checked"] + doc["skipped"] == len(calls)


def test_selberg_check_cli_work_counts(monkeypatch):
    # each grid element meets each divisor of (q) in at most one containment
    # test, and the projection runs only for identities whose two sides
    # differ as vectors
    tables, asked, projected, differ = [], [], [], []
    init, contains = SelbergTable.__init__, IdealHNF.contains
    projection, check = CyclotomicInteger._projection, cli.selberg_check

    def table_init(self, field, q):
        init(self, field, q)
        tables.append(self)
        asked.append([])

    def checked(*args, **kw):
        rep = check(*args, **kw)
        x, y = rep.lhs._pair(rep.rhs)
        differ.append(x.coeffs != y.coeffs)
        return rep

    monkeypatch.setattr(SelbergTable, "__init__", table_init)
    monkeypatch.setattr(IdealHNF, "contains",
                        lambda self, x: asked[-1].append((self.key(), x)) or contains(self, x))
    monkeypatch.setattr(CyclotomicInteger, "_projection",
                        lambda v: projected.append(v) or projection(v))
    monkeypatch.setattr(cli, "selberg_check", checked)
    r = run(["selberg-check", "--d", "5", "--max-norm-q", "25"])
    assert r.exit_code == 0 and json.loads(r.output)["checked"] == len(differ)
    for table, calls in zip(tables, asked):
        grid = cli._selberg_grid(table.field, table.q, "small")
        assert len(calls) == len(set(calls)) <= len(set(grid)) * len(table.divisors)
    assert len(projected) == sum(differ) < len(differ)


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
    assert set(doc["cutoffs"]) == {"X", "M"}
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
    # Cor. 3.3 at alpha = 1 is Thm. 3.2 at the printed ledger's eta
    third = json.loads(run(["thresholds", "--d", "5", "--k", "8", "--eta", "1/3"]).output)
    assert third["ledger"]["eta"] == "1/3"
    assert third["threshold_cor33"] == third["threshold_thm32"] != doc["threshold_thm32"]


# `thresholds --d 5 --k 8` before zeta_F(3 - eta) came from Euler-Maclaurin:
# a 20,000-term a_F partial sum and its divisor-bound tail
LEDGER_FROM_PARTIAL_SUMS = {
    "1/2": {"zetaF": "[1.063561769742597113, 1.0636617697425971131]",
            "C7": "[2805.5902786617771602, 2805.8540706067754075]",
            "C9": "[2805.5902786617771602, 2805.8540706067754075]",
            "C": "[0.00095718075378116556232, 0.00095720646653619345783]",
            "threshold_thm32": "0.036183477125253714183",
            "threshold_cor33": "0.036183477125253714183",
            "threshold_thm35": "0.021535294817092795898"},
    "1/3": {"zetaF": "[1.0477480080417239698, 1.0477644598968982541]",
            "C7": "[4134.7695646794065128, 4134.8344892886971417]",
            "C9": "[4134.7695646794065128, 4134.8344892886971417]",
            "C": "[0.00097473374897604588176, 0.00097473812191643671051]",
            "threshold_thm32": "0.036847017838546039697",
            "threshold_cor33": "0.036183477125253714183",
            "threshold_thm35": "0.021535294817092795898"},
}


@pytest.mark.parametrize("eta", sorted(LEDGER_FROM_PARTIAL_SUMS))
def test_ledger_narrows_inside_the_partial_sum_ledger(eta):
    # every printed endpoint is rounded outward, so the new intervals must
    # lie inside the old ones and the thresholds (lower bounds) can only rise
    doc = json.loads(run(["thresholds", "--d", "5", "--k", "8", "--eta", eta]).output)
    for name, old in LEDGER_FROM_PARTIAL_SUMS[eta].items():
        if name.startswith("threshold"):
            assert Fraction(doc[name]) >= Fraction(old), name
            continue
        (old_lo, old_hi), (new_lo, new_hi) = (
            [Fraction(x) for x in text.strip("[]").split(", ")]
            for text in (old, doc["ledger"][name]))
        assert old_lo <= new_lo <= new_hi <= old_hi, name


def test_recurrence_cli():
    r = CliRunner().invoke(main, ["recurrence", "--d", "5", "--k", "8",
                                  "--p", "(3,2)", "--x", "300", "--big-m", "3"])
    assert r.exit_code in (0, 3)
    doc = json.loads(r.output)
    assert doc["status"] in ("consistent", "inconclusive")


def test_recurrence_far_unit_window_exits_without_traceback():
    # M = 1100 asks for eps_plus^-1100 before any nearer power
    r = run(["recurrence", "--d", "5", "--k", "8", "--p", "(3,2)", "--x", "5",
             "--big-m", "1100"])
    assert r.exit_code in (0, 3)
    assert json.loads(r.output)["status"] in ("consistent", "inconclusive")


# (d, mu, --max-x, --max-m, the level, another spelling of it)
SPELLED_LEVELS = [
    (5, "1", 200, 6, "2", "(28944668049352442,46833456696935370)"),   # 2 eps_plus^40
    (17, "1", 200, 6, "2", "(102559065442,-40037849280)"),            # 2 eps_plus^-6
    (5, "(3,-1)", 200, 6, "3", "3,0,3"),                              # the HNF of (3)
    (5, "(3,-1)", 200, 6, "3", "(3,0)"),
    # the one class, 11 delta, is as well balanced as 11 delta / eps_plus
    (5, "(3,-1)", 2000, 4, "11", "11,0,11"),
]


@pytest.mark.parametrize("d, mu, max_x, max_m, plain_level, level", SPELLED_LEVELS,
                         ids=[f"{case[0]}-{case[-1]}" for case in SPELLED_LEVELS])
def test_certify_level_generator_does_not_change_the_output(d, mu, max_x, max_m,
                                                            plain_level, level):
    # the class representatives depend on the level's ideal alone: an
    # unbalanced generator, or none (an HNF triple), gives the same bytes
    args = ["certify", "--d", str(d), "--k", "8", "--mu", mu, "--max-x", str(max_x),
            "--max-m", str(max_m), "--level"]
    plain, other = run(args + [plain_level]), run(args + [level])
    assert plain.exit_code == other.exit_code == 0
    assert other.output == plain.output


def test_certify_a_mu_with_a_tiny_second_embedding():
    # mu = 2 eps_plus^40: the enclosure of sigma_2(mu^2) ~ 10^-33 once
    # straddled 0 at the working precision, and its square root raised
    mu = "(28944668049352442,46833456696935370)"
    r = run(["certify", "--d", "5", "--k", "8", "--mu", mu, "--max-x", "64",
             "--max-m", "2"])
    assert r.exit_code in (0, 3) and "finite_part" in r.output


def test_hecke_check_cli():
    r = run(["hecke-check", "--d", "5", "--k", "8", "--level", "1",
             "--samples", "60"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["symmetry_failures"] == 0 and doc["identity_failures"] == 0


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


def test_eta_reaches_only_the_ledger(monkeypatch):
    # eta is a parameter of Thm. 3.2's constants, not of a coefficient: two
    # etas print the same certificate bytes once the ledger is taken out
    args = ["certify", "--d", "5", "--k", "8", "--mu", "2"]
    docs = [json.loads(run(args + ["--eta", eta]).output) for eta in ("1/3", "1/2")]
    assert [d.pop("ledger")["eta"] for d in docs] == ["1/3", "1/2"]
    assert json.dumps(docs[0]) == json.dumps(docs[1])
    # an eta outside (0, 1) is refused before the ladder starts
    ladders, rungs, certify = [], [], cli.certify_nonvanishing
    monkeypatch.setattr(cli, "certify_nonvanishing",
                        lambda *a, **kw: ladders.append(a) or certify(*a, **kw))
    monkeypatch.setattr(CoefficientEvaluator, "evaluate",
                        lambda self, X, M: rungs.append((X, M)))
    for eta in ("0", "1"):
        assert "eta" in _usage_error(CERTIFY + ["--eta", eta])
    assert ladders == [] and rungs == []


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


@pytest.mark.parametrize("text", ["{bad", "5", "null", "[]", '{"cache_dir": 5}',
                                  '{"cache_dir": "dir"}'])
def test_malformed_config_file_exits_2(tmp_path, text):
    # not JSON, not an object, or a key no command reads, such as cache_dir
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


@pytest.mark.parametrize("mu", ["0", "-1"])
def test_certify_error_names_mu(mu):
    # certify has no --nu: it passes nu = mu, so mu is checked first
    assert "mu must be totally positive" in _usage_error(CERTIFY[:-1] + [mu])


FIELD_INFO = ["field-info", "--d", "5"]
SELBERG = ["selberg-check", "--d", "5", "--max-norm-q", "10"]
WEIL = ["weil-audit", "--d", "5", "--samples", "5"]
HECKE = ["hecke-check", "--d", "5", "--samples", "5"]
OPTION_VALUES = {"--cache-dir": "dir", "--precision": "80", "--residue-budget": "100000"}


@pytest.mark.parametrize("args, option", [
    (FIELD_INFO, "--cache-dir"), (FIELD_INFO, "--residue-budget"),
    (SELBERG, "--precision"), (WEIL, "--cache-dir"),
    (THRESHOLDS, "--cache-dir"), (THRESHOLDS, "--precision"),
    (THRESHOLDS, "--residue-budget"), (HECKE, "--cache-dir"),
    (HECKE, "--precision"), (HECKE, "--residue-budget"),
    (KLOOSTERMAN, "--cache-dir"), (SELBERG, "--cache-dir"), (CERTIFY, "--cache-dir"),
    (RECURRENCE, "--cache-dir"),
])
def test_option_a_command_does_not_read_exits_2(args, option):
    assert "No such option" in _usage_error(args + [option, OPTION_VALUES[option]])


# in an order that keeps each case's parametrize id
@pytest.mark.parametrize("args, option", [
    (FIELD_INFO, "--precision"), (CERTIFY, "--residue-budget"),
    (KLOOSTERMAN, "--precision"), (KLOOSTERMAN, "--residue-budget"),
    (RECURRENCE, "--precision"), (SELBERG, "--residue-budget"),
    (WEIL, "--precision"), (WEIL, "--residue-budget"),
    (RECURRENCE, "--residue-budget"), (CERTIFY, "--precision"),
])
def test_option_a_command_reads_is_accepted(args, option):
    r = run(args + [option, OPTION_VALUES[option]])
    assert r.exit_code in (0, 3), r.output
    json.loads(r.output)


def _exact(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _encloses(printed, x):
    """A printed [lo, hi] pair, or "[lo, hi]" string, contains the interval x."""
    if isinstance(printed, str):
        printed = printed.strip("[]").split(", ")
    a, b = (Fraction(t) for t in printed)
    return a <= _exact(lo(x)) and _exact(hi(x)) <= b


def _spy(monkeypatch, name):
    """Record (args, result) of each call the CLI makes to `name`."""
    calls = []
    real = getattr(cli, name)

    def spy(*args, **kw):
        calls.append((args, real(*args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, spy)
    return calls


def _ledger_encloses(doc, led):
    return all(_encloses(text, getattr(led, name)) for name, text in doc.items()
               if name != "eta")


@pytest.mark.parametrize("args", [CERTIFY, CERTIFY[:4] + ["6"] + CERTIFY[5:],
                                  CERTIFY[:-1] + ["(3,-1)"]])
def test_printed_certificate_is_outward_and_audits(monkeypatch, args):
    certs = _spy(monkeypatch, "certify_nonvanishing")
    ledgers = _spy(monkeypatch, "effective_constants")
    doc = json.loads(run(args).output)
    cert = certs[0][1]
    val = cert.coefficient
    assert _encloses(doc["finite_part"], val.finite_part)
    assert Fraction(doc["tail"]) >= _exact(val.tail)
    assert Fraction(doc["margin"]) <= _exact(cert.margin)
    assert _ledger_encloses(doc["ledger"], ledgers[0][1])
    # the certificate re-audited from its printed numbers alone
    with prec_guard(DEFAULT_PREC):
        f_lo, f_hi = (iv_from_fraction(Fraction(t)) for t in doc["finite_part"])
        printed = replace(val, chi_term=doc["chi"], finite_part=iv.mpf([lo(f_lo), hi(f_hi)]),
                          tail=hi(iv_from_fraction(Fraction(doc["tail"]))))
    parsed = replace(cert, verdict=doc["verdict"], reason=doc.get("reason"),
                     coefficient=printed)
    assert audit_certificate(parsed) and audit_certificate(cert)


def test_printed_numbers_are_outward(monkeypatch):
    exact = _spy(monkeypatch, "kloosterman_exact")
    bounds = _spy(monkeypatch, "weil_bound")
    doc = json.loads(run(KLOOSTERMAN).output)
    re_iv, im_iv = exact[0][1].complex_interval(DEFAULT_PREC)
    assert _encloses(doc["float"]["re"], re_iv) and _encloses(doc["float"]["im"], im_iv)
    assert _encloses(doc["weil_bound"]["interval"], bounds[0][1].interval(DEFAULT_PREC))

    reps = _spy(monkeypatch, "recurrence_check_cor45")
    doc = json.loads(run(RECURRENCE).output)
    rep = reps[0][1]
    assert _encloses(doc["lhs"], rep.lhs) and _encloses(doc["rhs"], rep.rhs)
    assert Fraction(doc["shared_width"]) >= _exact(rep.shared_width)

    ledgers = _spy(monkeypatch, "effective_constants")
    thresholds = [_spy(monkeypatch, f"threshold_{name}") for name in ("thm32", "cor33", "thm35")]
    doc = json.loads(run(THRESHOLDS).output)
    assert _ledger_encloses(doc["ledger"], ledgers[0][1])
    for name, calls in zip(("thm32", "cor33", "thm35"), thresholds):
        assert Fraction(doc[f"threshold_{name}"]) <= _exact(calls[0][1])

    doc = json.loads(run(FIELD_INFO + ["--precision", "30"]).output)
    assert _encloses(doc["A"], make_field(5).A_interval(30))

    rendered = _spy(monkeypatch, "dec_str")
    doc = json.loads(run(WEIL).output)
    (max_ratio, up), text = rendered[-1]
    assert up and text == doc["max_ratio"] and Fraction(text) >= _exact(max_ratio)


def test_dec_str_rounds_in_its_direction_and_keeps_the_layout():
    # one of the two directed renderings is mpmath's nearest one, so the
    # layout (fixed or exponent, stripped zeros) is nstr's
    import random

    import mpmath
    rng = random.Random(3)
    for _ in range(3000):
        prec = rng.choice([20, 53, 96, 300])
        man = rng.getrandbits(prec) * rng.choice([1, -1]) or 1
        with mpmath.workprec(prec):
            x = mpmath.ldexp(man, rng.randint(-400, 300))
        down, up = dec_str(x, False), dec_str(x, True)
        assert Fraction(down) <= _exact(x) <= Fraction(up)
        assert mpmath.nstr(x, 20) in (down, up)
    for value in (0, 1, -2.5, 2 ** -10, -10 ** 30, 10 ** 19, 10 ** 20):
        with mpmath.workprec(200):   # exact, and at most 20 digits
            x = mpmath.mpf(value)
        assert dec_str(x, False) == dec_str(x, True) == mpmath.nstr(x, 20)
