"""Recompute benchmark/reference.json, the reference enclosures that run.py
checks every certify and recurrence output against.

Each certify coefficient c_k(mu, mu) is enclosed at the deepest cutoffs the
certify workload can reach (X = 1500, M = 10); the recurrence enclosures are
taken at the workload's own cutoffs (X = 2000, M = 3).  Every finite part is
cross-checked against the independent 200-bit direct-summation oracle in
tests/oracles.py before anything is written.  Endpoints are stored as exact
rationals, so no decimal rounding enters the reference.

Run from the repository root (takes a few minutes):

    python3 benchmark/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

from mpmath import iv  # noqa: E402

from hilbertpoincare.cli import parse_element  # noqa: E402
from hilbertpoincare.field import make_field  # noqa: E402
from hilbertpoincare.intervals import hi, lo, prec_guard  # noqa: E402
from hilbertpoincare.poincare import (CoefficientEvaluator, PoincareParams,  # noqa: E402
                                      coefficient_tilde, recurrence_check_cor45)
from oracles import poincare_truncated_oracle  # noqa: E402

import workloads  # noqa: E402

CERT_X, CERT_M = workloads.CERTIFY_MAX_X, workloads.CERTIFY_MAX_M


def exact(x) -> str:
    man, exp = x.man_exp  # exact: re-wrapping in mpf() would round
    return str(Fraction(man) * Fraction(2) ** exp)


def pair(x):
    return [exact(lo(x)), exact(hi(x))]


def oracle_check(params, nu, mu, val, X, M, label):
    """The 200-bit direct sum must lie in chi + finite part."""
    oracle = poincare_truncated_oracle(params, nu, mu, X, M)
    acc = iv.mpf(val.chi_term) + val.finite_part
    if not (lo(acc) <= oracle <= hi(acc)):
        raise SystemExit(f"{label}: oracle {oracle} escaped finite part {acc}")
    print(f"{label}: oracle {oracle} inside finite part", flush=True)
    return str(oracle)


def main():
    F = make_field(5)
    out = {"certify": {}, "recurrence": {}}
    for k, mu_text, _verdict in workloads.CERTIFY_CASES:
        params = PoincareParams(F, k)
        mu = parse_element(F, mu_text)
        val = CoefficientEvaluator(params, mu, mu).evaluate(CERT_X, CERT_M)
        label = workloads.certify_label(k, mu_text)
        with prec_guard(96):
            enc = val.enclosure()
        out["certify"][label] = {
            "X": CERT_X, "M": CERT_M, "enclosure": pair(enc),
            "oracle_finite": oracle_check(params, mu, mu, val, CERT_X, CERT_M, label)}
    r = workloads.RECURRENCE
    params = PoincareParams(F, r["k"])
    one, p = F.one(), parse_element(F, r["p"])
    rep = recurrence_check_cor45(params, one, one, p, 1, 1, r["x"], r["big_m"])
    oracles = {}
    for name, nu, mu in (("lhs", p, p), ("t1", one, p * p), ("t2", one, one)):
        val = coefficient_tilde(params, nu, mu, r["x"], r["big_m"])
        oracles[name] = oracle_check(params, nu, mu, val, r["x"], r["big_m"],
                                     f"recurrence {name}")
    out["recurrence"] = {"X": r["x"], "M": r["big_m"], "status": rep.status,
                         "lhs": pair(rep.lhs), "rhs": pair(rep.rhs),
                         "shared_width": exact(rep.shared_width),
                         "oracle_finite": oracles}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
