"""Run one workload of the mzvtools benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-w10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the toolkit is imported from
``src/``.  Set-up is timed several times in fresh interpreters (start,
``import mzvtools``, input generation).  Then whole sessions run, each in a
fresh single-threaded interpreter so every cache starts empty, until the
next session would end after ``--seconds``; at least one always runs.
Timings other than set-up are given at a reference host speed: untraced
sessions sample the host's speed while they run (see speedprobe.py),
because on a shared host it drifts by up to 1.8x.  With ``--trace 1`` each
untraced session is followed by a traced one, which runs no speed probes,
and the per-layer figures come from the traced ones.  A run still going after
4 x ``--seconds`` + 30 s (170 s at most) is stopped and exits 3 without a
result: a program that slow is too slow to measure, not wrong.

Every answer is checked after its session's timed region.  Lines before the
last one are the human-readable report (every figure by name and unit, the
machine and provenance block, and failures); the last line is the JSON
result with the metrics ``BENCHMARK.json`` declares for the trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import benchstats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
# A run may take OVERRUN_FACTOR times --seconds (plus set-up) before it is
# stopped as an overrun, and never more than HARD_LIMIT_S.
OVERRUN_FACTOR = 4
SETUP_ALLOWANCE_S = 30.0
HARD_LIMIT_S = 170.0
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_CAP_VARS:  # one session is one single-threaded client
        env[var] = "1"
    return env


class Overrun(Exception):
    """A session outlived the run's deadline: too slow, not wrong."""


def spawn(args, deadline):
    """Start one session child; returns (set-up seconds, summary) or
    (None, None) when it failed.

    Set-up is the time from spawning to the child's READY line.  The child
    is killed and Overrun raised if it outlives ``deadline``; either way it
    has ended on return.
    """
    cmd = [sys.executable, os.path.join(HERE, "session.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    buf, ready_at = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise Overrun("session %s was still running at the deadline" % args)
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if ready_at is None and b"\n" in buf:
                ready_at = time.perf_counter()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = buf.decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        return None, None
    return ready_at - t0, (json.loads(lines[-1]) if len(lines) > 1 else {})


def _git_commit():
    """The checked-out commit; git is pointed at this checkout's .git so it
    does not search the directories above it."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _workload_figures(untraced):
    """Ungated figures (medians over sessions): the raw wall time and the
    host speed it was measured at, the first request's latency, the figures
    that exist on one workload only, and latency summaries per request
    kind, all but the first two at the reference speed."""
    med = statistics.median
    lat = {}
    for s in untraced:
        for kind, ts in s["latencies"].items():
            lat.setdefault(kind, []).extend(ts)
    fig = {"wall_s": (med(s["wall_s"] for s in untraced), "s"),
           "host_speed": (med(s["speed"] for s in untraced), "ratio"),
           "first_result_s": (med(s["first_result_s"] for s in untraced), "s")}
    if "sweep" in lat:
        fig["values_per_s"] = (med(s["values_per_s"] for s in untraced), "1/s")
    if "hiprec" in lat:
        fig["hiprec_value_s"] = (med(lat["hiprec"]), "s")
    if "identify" in lat:
        fig["identify_s"] = (med(lat["identify"]), "s")
    if "period" in lat:
        fig["samples_per_s"] = (med(s["samples_per_s"] for s in untraced), "1/s")
    return fig, {kind: benchstats.summary(ts) for kind, ts in lat.items()}


def _measure(args, deadline):
    end_to_end, per_layer = _declared()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = spawn(base + ["--setup-only"], deadline)
        if setup is None:
            print("error: the set-up probe failed", file=sys.stderr)
            return 1
        setups.append(setup)

    n_requests = len(workloads.make_requests(args.workload, args.seed))
    plan = [False, True] if args.trace else [False]
    spans_dir = os.path.join(ROOT, ".bench_out")
    sessions = {False: [], True: []}
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    rounds = 0
    crashed = False
    while not crashed:
        for traced in plan:
            extra = []
            if traced:
                os.makedirs(spans_dir, exist_ok=True)
                extra = ["--trace", "--spans-out", os.path.join(
                    spans_dir, "spans-%s-%d-%d.json" % (args.workload, args.seed, rounds))]
            setup, summary = spawn(base + extra, deadline)
            if not summary:
                crashed = True
                attempted += n_requests
                failed += n_requests
                failures.append("a session crashed; all its requests count as failed")
                break
            setups.append(setup)
            sessions[traced].append(summary)
            attempted += summary["attempted"]
            failed += len(summary["failures"])
            failures += ["%s: %s" % (f["request"], f["why"]) for f in summary["failures"]]
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break

    med = statistics.median
    untraced, traced = sessions[False], sessions[True]
    if not untraced or (args.trace and not traced):
        print("error: no session completed: %s" % failures[:3], file=sys.stderr)
        return 1
    values = {
        "setup_s": med(setups),
        "norm_wall_s": med(s["norm_wall_s"] for s in untraced),
        "peak_rss_mb": med(s["peak_rss_mb"] for s in untraced),
    }
    figures, latency = _workload_figures(untraced)
    period_z = {}
    if "period_z" in untraced[0]:
        period_z = {label: med(s["period_z"].get(label, 0.0) for s in untraced)
                    for label in workloads.GRAPHS}
    if traced:
        values.update({k: med(s["layers"][k] for s in traced) for k in traced[0]["layers"]})
        values["trace.overhead_s"] = (med(s["wall_s"] for s in traced)
                                      - med(s["wall_s"] for s in untraced))
        for label in workloads.GRAPHS:
            values["feynman.period_z." + label] = period_z.get(label, 0.0)
    declared = per_layer if args.trace else end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}

    fail_ratio = failed / attempted
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sessions": len(untraced), "traced_sessions": len(traced),
        "setup_samples": len(setups),
        "provenance": dict(untraced[0]["machine"], git_commit=_git_commit(),
                           workload_seed=args.seed, version=untraced[0]["version"]),
        "fail_ratio": fail_ratio,
        "workload_figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "latency_by_kind_s": latency,
        "period_z": period_z,
        "failures": failures[:20],
    }
    rows = [(name, values[name], unit) for name, unit in end_to_end.items()]
    rows += [(name, value, unit) for name, (value, unit) in figures.items()]
    rows.append(("fail_ratio", fail_ratio, "ratio"))
    for row in rows:
        print("%-16s %14.6g %s" % row)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mzvtools", "__init__.py")):
        print("error: %s holds no src/mzvtools to benchmark" % ROOT, file=sys.stderr)
        return 2
    budget = min(HARD_LIMIT_S, SETUP_ALLOWANCE_S + OVERRUN_FACTOR * args.seconds)
    try:
        return _measure(args, time.perf_counter() + budget)
    except Overrun as exc:
        print("error: overran the %.0f s budget, so the program is too slow to "
              "measure (its answers were not judged): %s" % (budget, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
