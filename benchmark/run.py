"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 benchmark/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  Each repetition of the workload
runs in a fresh interpreter (child.py), one child at a time, until another
repetition would not fit in --seconds; at least one always runs.  Every CLI
output is checked (workloads.check) against benchmark/reference.json.

--trace 0 prints the end-to-end metrics: setup_s, wall_ref_s and peak_rss_mb,
each the median over the run's children.  wall_ref_s is the workload's wall
time read at the unloaded machine's speed (speed.py): on a shared host the
raw wall time, still printed as figures.wall_s, moves with the neighbours'
load.  --trace 1 alternates untraced and traced children and prints the
per-layer metrics of the traced ones, with trace.overhead_s = traced wall_s
- untraced wall_s.  The last stdout line is the result; the line before it
holds the workload's own figures (raw wall time, certificate times at the
reference speed and margins, the recurrence width), the environment and any
problems.
Results are appended to .bench_out/results.jsonl, the spans of the last
traced child to .bench_out/spans-<workload>.json.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 15       # set-up is timed in at least this many children
RUN_LIMIT_S = 170        # every run ends well inside 180 s
PREDICTIONS = os.path.join(HERE, "predictions.json")


class HarnessError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("POINCARE_CACHE_DIR", None)       # the JSONL store stays off
    env.update(PYTHONPATH=os.pathsep.join([SRC, HERE]), BENCH_SRC=SRC,
               PYTHONHASHSEED="0")
    return env


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        self.env = child_env()

    def elapsed(self):
        return time.monotonic() - self.t0

    def spawn(self, trace=False, setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", os.path.join(OUT, f"spans-{self.workload}.json.gz")]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(5.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{self.workload} child exceeded the run's time limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["t_first"] - start
        doc["wall_s"] = doc["t_end"] - doc["t_run"] - doc["handler_s"]
        return doc

    def repeat(self, seconds, batch):
        """Run batch() until one more would overrun `seconds`."""
        done = []
        while True:
            done.append(batch())
            if self.elapsed() * (len(done) + 1) / len(done) > seconds:
                return done


def median(xs):
    return statistics.median(xs) if xs else 0.0


def check_reps(reps, ops, refs):
    attempted = failed = 0
    problems, values = [], []
    for rep in reps:
        rep_values = {}
        for op, res in zip(ops, rep["ops"]):
            oc = workloads.check(op, res["exit"], res["stdout"], refs)
            attempted += oc.attempted
            failed += oc.failed
            problems += oc.problems
            rep_values[op.label] = dict(oc.values, seconds=res["seconds"],
                                        ref_s=res.get("ref_s"))
        values.append(rep_values)
    return attempted, failed, problems, values


def workload_figures(workload, values):
    """The figures that belong to one workload only, as medians over reps."""
    out = {}
    if workload == "certify":
        nz = [sum(v["ref_s"] for v in rv.values() if v.get("verdict") == "NONZERO")
              for rv in values]
        inc = [sum(v["ref_s"] for v in rv.values() if v.get("verdict") == "INCONCLUSIVE")
               for rv in values]
        margins = [v["margin"] for rv in values for v in rv.values()
                   if v.get("verdict") == "NONZERO"]
        out = {"nonzero_s": median(nz), "inconclusive_s": median(inc),
               "margin_min": min(margins) if margins else None}
    elif workload == "recurrence":
        widths = [v["shared_width"] for rv in values for v in rv.values()
                  if "shared_width" in v]
        out = {"width_max": max(widths) if widths else None}
    labels = values[0].keys() if values else ()
    for key in ("seconds", "ref_s"):
        out[f"op_{key}"] = {lab: median([rv[lab][key] for rv in values if lab in rv])
                            for lab in labels}
    return out


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(rep):
    """Per-layer metrics of one traced child; None marks an unavailable one."""
    t = rep["trace"]
    by_name, live, deltas = t["by_name"], t["live"], t["cache_deltas"]
    gone = set(t["unavailable"])

    def calls(name):
        return by_name[name]["calls"] if name in by_name else None

    def span(*names):
        if any(n not in by_name for n in names):
            return None
        return sum(by_name[n]["span_s"] for n in names)

    def counter(key, source=live):
        return None if key in gone else source.get(key, 0)

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    rings = calls("residues.ResidueRing.__init__")
    moduli = None if "residues.distinct_moduli" in gone else t["moduli"]
    exact = calls("kloosterman.kloosterman_exact")
    enumerated = counter("kloosterman.exact_enumerated")
    m = {
        "residues.rings_built": rings,
        "residues.distinct_moduli": moduli,
        "residues.rings_per_modulus": ratio(rings, moduli),
        "residues.units_enumerated": counter("residues.units_enumerated"),
        "residues.unit_data_s": span("residues.ResidueRing.unit_data"),
        "kloosterman.exact_calls": exact,
        "kloosterman.exact_enumerated": enumerated,
        "kloosterman.exact_hit_ratio": None if enumerated is None or exact is None
        else ratio(exact - enumerated, exact),
        "kloosterman.exact_s": span("kloosterman.kloosterman_exact"),
        "kloosterman.max_order": counter("kloosterman.max_order"),
        "kloosterman.query_s": span("kloosterman.KloostermanQuery.__init__",
                                    "kloosterman.KloostermanQuery.trace_data"),
        "kloosterman.float_calls": calls("kloosterman.kloosterman_float"),
        "kloosterman.weil_bound_s": span("kloosterman.weil_bound"),
        "cyclotomic.real_interval_calls": calls("cyclotomic.CyclotomicInteger.real_interval"),
        "cyclotomic.real_interval_s": span("cyclotomic.CyclotomicInteger.real_interval"),
        "cyclotomic.cos_tables_built": counter("cyclotomic.cos_tables_built", deltas),
        "cyclotomic.cos_table_entries": counter("cyclotomic.cos_table_entries"),
        "cyclotomic.complex_interval_calls":
            calls("cyclotomic.CyclotomicInteger.complex_interval"),
        "cyclotomic.complex_interval_s": span("cyclotomic.CyclotomicInteger.complex_interval"),
        "cyclotomic.zero_tests": calls("cyclotomic.CyclotomicInteger.is_zero"),
        "cyclotomic.zero_test_s": span("cyclotomic.CyclotomicInteger.is_zero"),
        "bessel.evals": calls("bessel.besselj_eval"),
        "bessel.eval_s": span("bessel.besselj_eval"),
        "bessel.not_exact_enough": counter("bessel.not_exact_enough"),
        "bessel.skipped_at_cap": counter("bessel.skipped_at_cap"),
        "poincare.rungs": t["rungs"],
        "poincare.tail_s": span("poincare.CoefficientEvaluator.tail_bound"),
        "poincare.terms_requested": calls("poincare.CoefficientEvaluator.term"),
        "poincare.terms_computed": counter("poincare.terms_computed"),
        "poincare.term_self_s": by_name.get("poincare.CoefficientEvaluator.term",
                                            {}).get("self_s"),
        "poincare.ledger_s": span("poincare.effective_constants"),
        "poincare.classes": counter("poincare.classes"),
        "poincare.classes_s": span("poincare.CoefficientEvaluator.classes_upto"),
        "ideals.is_principal_calls": calls("ideals.is_principal"),
        "ideals.is_principal_s": span("ideals.is_principal"),
        "ideals.divisors_s": span("ideals.divisors"),
        "ideals.ideals_of_norm_s": span("ideals.ideals_of_norm"),
        "ideals.factor_cache_misses": counter("ideals.factor_cache_misses", deltas),
        "field.balanced_rep_calls": calls("field.RealQuadraticField.balanced_representative"),
        "field.balanced_rep_s": span("field.RealQuadraticField.balanced_representative"),
        "field.setup_s": rep["t_first"] - rep["t_import"],
        "trace.spans": t["spans"],
    }
    for layer, v in t["layers"].items():
        m[f"{layer}.span_s"] = v["span_s"]
        m[f"{layer}.self_s"] = v["self_s"]
    return m


def check_predictions(workload, metrics):
    """Wrappers that must fire, and stay silent, on this workload."""
    with open(PREDICTIONS, encoding="utf-8") as fh:
        expect = json.load(fh)["trace_expectations"][workload]
    problems = []
    for name in expect["nonzero"]:
        if metrics.get(name) is not None and not metrics[name] > 0:
            problems.append(f"{name} is 0 on {workload}, but this workload exercises it")
    for prefix in expect["zero"]:
        for name, v in metrics.items():
            if (name == prefix or name.startswith(prefix + ".")) and v:
                problems.append(f"{name} = {v} on {workload}, where bypass is predicted")
    return len(expect["nonzero"]) + len(expect["zero"]), problems


# -- environment ------------------------------------------------------------

def environment(backend):
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    rev = "unknown"     # the checkout need not be a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except OSError:
            pass
    return {"python": platform.python_version(), "mpmath_backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "git_revision": rev,
            "src_sha256": digest.hexdigest()[:16]}


def build():
    """Byte-compile the package, so children time imports, not compilation."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise HarnessError(f"compileall failed: {proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def measure(args):
    if not os.path.isfile(os.path.join(SRC, "hilbertpoincare", "cli.py")):
        raise HarnessError("run from the root of a source checkout: src/hilbertpoincare is missing")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    build()
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        pairs = runner.repeat(args.seconds, lambda: (runner.spawn(), runner.spawn(trace=True)))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        reps = plain + traced
    else:
        reps = plain = runner.repeat(args.seconds, runner.spawn)
    ops = workloads.invocations(args.workload, args.seed)
    attempted, failed, problems, values = check_reps(reps, ops, refs)
    if args.trace:
        per_rep = [layer_metrics(r) for r in traced]
        metrics = {}
        for name, unit in [(m["name"], m["unit"]) for m in args.spec["per_layer"]]:
            vals = [pr.get(name) for pr in per_rep]
            value = None if any(v is None for v in vals) else median(vals)
            metrics[name] = {"value": value, "unit": unit}
        overhead = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
        metrics["trace.overhead_s"]["value"] = overhead
        n, bad = check_predictions(args.workload, {k: v["value"] for k, v in metrics.items()})
        attempted += n
        failed += len(bad)
        problems += bad
    else:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn(setup_only=True)["setup_s"])
        if any(r["ref_s"] is None for r in reps):
            raise HarnessError("a child ran too briefly to sample the machine's speed")
        values_e2e = {"setup_s": median(setups),
                      "wall_ref_s": median([r["ref_s"] for r in reps]),
                      "peak_rss_mb": median([r["peak_rss_mb"] for r in reps])}
        metrics = {m["name"]: {"value": values_e2e[m["name"]], "unit": m["unit"]}
                   for m in args.spec["end_to_end"]}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "children": len(reps), "env": environment(reps[0]["mpmath_backend"]),
              "figures": dict(workload_figures(args.workload, values[:len(plain)]),
                              wall_s=median([r["wall_s"] for r in plain])),
              "unavailable": sorted({u for r in reps for u in r.get("trace", {})
                                     .get("unavailable", ())}),
              "problems": problems}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(detail, result=result)) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            args.spec = json.load(fh)
        measure(args)
    except (HarnessError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
