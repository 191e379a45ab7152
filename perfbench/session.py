"""One benchmark session in a fresh interpreter (started by run.py).

Imports the toolkit, builds the workload's requests from the seed, prints
``READY`` (the parent times set-up up to that line), then sends every
request through ``mzvtools.cli.main([..., "--json"])`` one after another.
An untraced session samples the host's speed while it runs (speedprobe.py)
and reports its latencies at the reference speed as well as its raw wall
time.  Answers are checked after the timed region, and the last stdout line
is a JSON summary of the session.

    PYTHONPATH=src python3 perfbench/session.py --workload exact-w10 --seed 1
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
import traceback


def _machine():
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "thread_caps": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _send(main, numerics, req):
    """Run one request; returns (exit code or None if it raised, answer text)."""
    if req["argv"] is None:  # the hypercube estimate has no subcommand
        est = numerics.hypercube_zeta2(req["expect"]["samples"], req["expect"]["seed"])
        return 0, est._asdict()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(req["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    if code:
        print("request %s exited %s: %s" % (req["argv"], code, err.getvalue().strip()),
              file=sys.stderr)
    return code, out.getvalue()


def _figures(reqs, latencies, answers, verdicts):
    """Workload-specific end-to-end figures and the period diagnostics."""
    import checks
    by_kind, period_z = {}, {}
    period_samples, period_time = 0, 0.0
    for req, t, (_, text), verdict in zip(reqs, latencies, answers, verdicts):
        by_kind.setdefault(req["kind"], []).append(t)
        if req["kind"] == "period":
            period_samples += req["expect"]["samples"]
            period_time += t
            if verdict is None:
                label = req["expect"]["graph"]
                period_z[label] = checks.period_z(label, checks.parse_answer(req, text))
    fig = {"latencies": by_kind}
    if "sweep" in by_kind:
        fig["values_per_s"] = len(by_kind["sweep"]) / sum(by_kind["sweep"])
    if period_time:
        fig["samples_per_s"] = period_samples / period_time
        fig["period_z"] = period_z
    return fig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import mzvtools
    from mzvtools import cli, numerics
    import workloads
    reqs = workloads.make_requests(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import checks
    import spans
    import speedprobe
    tracer = spans.Tracer() if args.trace else None
    main_fn = cli.main
    if tracer:
        tracer.install()
        main_fn = tracer.wrap(cli.main, "cli.main")

    latencies, answers, intervals = [], [], []
    sampler = speedprobe.Sampler(workloads.PROBE_PARTS[args.workload])
    with contextlib.nullcontext() if tracer else sampler:
        start = time.perf_counter()
        for req in reqs:
            t0, spent = time.perf_counter(), sampler.spent
            try:
                answer = _send(main_fn, numerics, req)
            except Exception:  # a crashing request is a failed request, not a dead run
                traceback.print_exc()
                answer = (None, "")
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - (sampler.spent - spent))
            intervals.append((t0, t1))
            answers.append(answer)
        wall = time.perf_counter() - start - sampler.spent
    # each request at the host speed the probes around it saw; traced
    # sessions run no probes, so that spans hold only the program's time
    norm_latencies = latencies
    if not tracer:
        norm_latencies = [lat * sampler.speed(*iv) for lat, iv in zip(latencies, intervals)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = {"wall_s": wall, "norm_wall_s": sum(norm_latencies),
               "first_result_s": norm_latencies[0],
               "peak_rss_mb": peak_rss_mb, "machine": _machine(),
               "version": mzvtools.__version__}
    if sampler.samples:
        summary["speed"] = sampler.median_speed()
    if tracer:
        tracer.uninstall()
        summary["layers"] = spans.layer_metrics(tracer.spans, wall, spans.cache_counts())
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.spans}, handle)

    verdicts = checks.check_session(args.workload, reqs, answers)
    summary["attempted"] = len(reqs)
    summary["failures"] = [{"request": req["argv"] or req["kind"], "why": v}
                           for req, v in zip(reqs, verdicts) if v is not None]
    summary.update(_figures(reqs, norm_latencies, answers, verdicts))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
