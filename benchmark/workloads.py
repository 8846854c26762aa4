"""The benchmark's four workloads and the checks applied to their outputs.

A workload is a fixed list of CLI invocations run in order inside one
interpreter, so module-level caches are shared the way a batch script would
share them.  Only `weil` draws inputs from the seed.  This module uses the
standard library only: run.py imports it without importing the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

CERTIFY_MAX_X, CERTIFY_MAX_M = 1500, 10
# (k, mu, expected verdict); k = 6 cannot certify: c ~ 2.812, so |c - 1| > 1
CERTIFY_CASES = [(6, "1", "INCONCLUSIVE"), (8, "1", "NONZERO"),
                 (8, "2", "NONZERO"), (8, "(3,-1)", "NONZERO"),
                 (10, "1", "NONZERO"), (12, "1", "NONZERO")]
RECURRENCE = {"d": 5, "k": 8, "p": "(3,2)", "x": 2000, "big_m": 3}
SELBERG = [(5, 2150), (2, 3200)]            # (d, identities checked)
WEIL_FIELDS, WEIL_SAMPLES = (5, 2, 3), 500

NAMES = ("certify", "recurrence", "selberg", "weil")
FIELDS = {"certify": (5,), "recurrence": (5,), "selberg": (5, 2),
          "weil": WEIL_FIELDS}


def certify_label(k, mu):
    return f"k={k},mu={mu}"


@dataclass
class Op:
    label: str
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


def invocations(workload: str, seed: int) -> list[Op]:
    if workload == "certify":
        return [Op(certify_label(k, mu),
                   ["certify", "--d", "5", "--k", str(k), "--mu", mu,
                    "--max-x", str(CERTIFY_MAX_X), "--max-m", str(CERTIFY_MAX_M)],
                   "certify", {"verdict": verdict})
                for k, mu, verdict in CERTIFY_CASES]
    if workload == "recurrence":
        r = RECURRENCE
        return [Op("recurrence",
                   ["recurrence", "--d", str(r["d"]), "--k", str(r["k"]),
                    "--p", r["p"], "--x", str(r["x"]), "--big-m", str(r["big_m"])],
                   "recurrence")]
    if workload == "selberg":
        return [Op(f"d={d}", ["selberg-check", "--d", str(d), "--max-norm-q", "200",
                              "--grid", "small"], "selberg", {"checked": n})
                for d, n in SELBERG]
    if workload == "weil":
        rng = random.Random(seed)
        return [Op(f"d={d}", ["weil-audit", "--d", str(d), "--samples", str(WEIL_SAMPLES),
                              "--seed", str(rng.randrange(2**31))],
                   "weil", {"samples": WEIL_SAMPLES})
                for d in WEIL_FIELDS]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks ---------------------------------------------------------
#
# The CLI prints endpoints with mpmath.nstr at 20 significant digits, rounded
# to nearest.  Widening each printed value by |v| * 1e-18 covers that rounding
# with room to spare, so every comparison below is outward-rounded and exact.

def _outward(text):
    v = Fraction(Decimal(text))
    w = abs(v) / 10**18
    return v - w, v + w


def _interval(pair):
    return _outward(pair[0])[0], _outward(pair[1])[1]


def _disjoint(a, b):
    return a[1] < b[0] or b[1] < a[0]


def _reference_interval(pair):
    return Fraction(pair[0]), Fraction(pair[1])


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list
    values: dict


def check(op: Op, exit_code, stdout: str, refs: dict) -> Outcome:
    """Count the operations in one invocation and the ones that failed."""
    size = {"selberg": op.expect.get("checked", 1),
            "weil": op.expect.get("samples", 1)}.get(op.kind, 1)
    if exit_code not in (0, 1, 3):
        return Outcome(size, size, [f"{op.label}: exit {exit_code}"], {})
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Outcome(size, size, [f"{op.label}: no JSON output"], {})
    problems = []
    if op.kind in ("certify", "recurrence"):
        try:
            if op.kind == "certify":
                values = _check_certificate(op, exit_code, doc, refs["certify"][op.label],
                                            problems)
            else:
                values = _check_recurrence(exit_code, doc, refs["recurrence"], problems)
        except (KeyError, IndexError, TypeError, ArithmeticError) as exc:
            values = {}
            problems.append(f"{op.label}: malformed output ({type(exc).__name__}: {exc})")
        return Outcome(1, 1 if problems else 0, problems, values)
    if op.kind == "selberg":
        bad = doc.get("failures", size) + max(0, size - doc.get("checked", 0))
        if bad or exit_code != 0 or doc.get("checked") != size:
            problems.append(f"{op.label}: checked {doc.get('checked')} of {size}, "
                            f"failures {doc.get('failures')}, exit {exit_code}")
        return Outcome(size, min(size, max(bad, 1 if problems else 0)), problems, {})
    # weil
    bad = doc.get("violations", size) + max(0, size - doc.get("samples", 0))
    if bad or exit_code != 0:
        problems.append(f"{op.label}: samples {doc.get('samples')} of {size}, "
                        f"violations {doc.get('violations')}, exit {exit_code}")
    return Outcome(size, min(size, max(bad, 1 if problems else 0)), problems,
                   {"max_ratio": float(doc.get("max_ratio", "nan"))})


def _check_certificate(op, exit_code, doc, ref, problems):
    verdict = doc.get("verdict")
    if verdict not in ("NONZERO", "INCONCLUSIVE"):
        problems.append(f"{op.label}: verdict {verdict!r}")
        return {}
    if (exit_code == 0) != (verdict == "NONZERO"):
        problems.append(f"{op.label}: exit {exit_code} with verdict {verdict}")
    if verdict != op.expect["verdict"]:
        problems.append(f"{op.label}: expected {op.expect['verdict']}, got {verdict}")
    chi = Fraction(doc["chi"])
    f_lo, f_hi = _interval(doc["finite_part"])
    tail = _outward(doc["tail"])[1]
    enclosure = (chi + f_lo - tail, chi + f_hi + tail)
    if _disjoint(enclosure, _reference_interval(ref["enclosure"])):
        problems.append(f"{op.label}: enclosure disjoint from reference")
    if verdict == "NONZERO":
        dist = max(abs(chi + f_lo - 1), abs(chi + f_hi - 1))
        if not dist + tail < 1:
            problems.append(f"{op.label}: NONZERO fails the re-audit |c - 1| + tail < 1")
    return {"verdict": verdict, "margin": float(Decimal(doc["margin"]))}


def _check_recurrence(exit_code, doc, ref, problems):
    status = doc.get("status")
    expected_exit = {"consistent": 0, "inconclusive": 3}.get(status)
    if expected_exit is None or exit_code != expected_exit:
        problems.append(f"recurrence: status {status!r}, exit {exit_code}")
    for side in ("lhs", "rhs"):
        if _disjoint(_interval(doc[side]), _reference_interval(ref[side])):
            problems.append(f"recurrence: {side} disjoint from reference")
    return {"status": status, "shared_width": float(Decimal(doc["shared_width"]))}
