"""One repetition of one benchmark workload, in a fresh interpreter.

Started by run.py with src/ on PYTHONPATH.  It imports the CLI, builds the
fields the workload uses (set-up), then runs the workload's CLI invocations
in order, in process, capturing each one's output and exit code.  It prints
one JSON line: monotonic timestamps, per-invocation results, the peak RSS
and, with --trace, the per-layer report.  CLOCK_MONOTONIC is system-wide on
Linux, so run.py can subtract its own spawn time from `t_first`.

Untraced children sample the machine's speed while the invocations run
(speed.py) and report each invocation's time, and the whole workload's, at
the unloaded machine's speed (`ref_s`).  Traced children do not sample, so
the kernels stay out of the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import speed
import workloads


def run_cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=argv, prog_name="hilbert-poincare", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is reported, not raised
            code = f"crash: {type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where to write the spans (trace only)")
    args = ap.parse_args()

    import mpmath

    import hilbertpoincare
    from hilbertpoincare import cli
    from hilbertpoincare.field import make_field
    expected = os.path.realpath(os.environ["BENCH_SRC"])
    if not os.path.realpath(hilbertpoincare.__file__).startswith(expected + os.sep):
        raise SystemExit(f"imported {hilbertpoincare.__file__}, not the checkout's src/")
    t_import = time.monotonic()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
        make_field = cli.make_field
        t_import = time.monotonic()
    for d in workloads.FIELDS[args.workload]:
        make_field(d).narrow_h1
    t_first = time.monotonic()
    out = {"t_import": t_import, "t_first": t_first, "ops": [],
           "mpmath_backend": mpmath.libmp.BACKEND}
    sampler = None
    if not (args.setup_only or args.trace):
        sampler = speed.Sampler()
        sampler.start()
    t_run = out["t_run"] = time.monotonic()
    start = sampler.mark() if sampler else None
    if not args.setup_only:
        for op in workloads.invocations(args.workload, args.seed):
            before = sampler.mark() if sampler else None
            t0 = time.monotonic()
            code, text = run_cli(cli.main, op.argv)
            seconds = time.monotonic() - t0
            res = {"label": op.label, "seconds": seconds, "exit": code, "stdout": text}
            if sampler is not None:
                after = sampler.mark()
                res["seconds"] -= after[1] - before[1]
                res["ref_s"] = speed.ref_seconds(seconds, before, after)
            out["ops"].append(res)
    out["t_end"] = time.monotonic()
    out["handler_s"] = 0.0
    if sampler is not None:
        sampler.stop()
        end = sampler.mark()
        out["ref_s"] = speed.ref_seconds(out["t_end"] - t_run, start, end)
        out["speed_samples"], out["handler_s"] = end[0], end[1] - start[1]
        for res in out["ops"]:      # an invocation shorter than PERIOD_S
            if res["ref_s"] is None and end[0] > start[0]:
                res["ref_s"] = res["seconds"] * (end[2] - start[2]) / (end[0] - start[0])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.report()
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
