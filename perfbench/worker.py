"""One benchmark worker process.

Imports cfkde from the checkout's src/, runs the warm-up jobs, prints
"ready", and (unless --mode setup) runs whole passes of the job list through
the real entry point cfkde.cli.main(argv), in-process and one job at a time.
Each job's latency covers the main() call only; its output is checked after
the clock stops.  The number of passes is the least that holds MIN_JOBS
jobs and fills about --seconds of busy time, unless --passes fixes it.

Before each job, and once after the last, the worker times a fixed piece of
interpreter and numpy work (`_calibration`).  The speed of the shared VM the
benchmark was tuned on moves by up to a third over minutes, and flips
between two speeds about 30% apart within seconds, as other tenants come and
go; every job moves with it.  So each latency is reported at the reference
speed: scaled by REFERENCE_CALIBRATION_S over the mean of the calibrations
just before and just after the job.  The result also carries `speed`, the
reference time over the run's mean calibration, by which run.py scales the
set-up time and the traced run's per-layer times.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_JOBS = 101  # at least ten jobs beyond p90
# stop starting passes this long after the worker started, whatever the count
WALL_LIMIT_S = 120.0


# a round figure near the mean _calibration() time on the 2-core x86-64 VM
# the benchmark was tuned on; reported times are scaled to this speed
REFERENCE_CALIBRATION_S = 2.0e-3
_CAL_X = np.linspace(0.0, 1.0, 50000)


def _calibration():
    """Seconds taken by a fixed mix of interpreter and numpy work (about 2 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    np.cos(_CAL_X).sum()
    return time.perf_counter() - t0


def _peak_rss_mb():
    """This process's own peak resident set.  Linux carries the parent's
    high-water mark into ru_maxrss across the exec that starts the worker,
    so read VmHWM, which starts afresh at exec, where the kernel gives it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(cli, job, rec):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    # each job starts from a collected heap, as a fresh `cfkde` process would,
    # so that garbage left by the previous job is not charged to this one
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if rec is None:
                rc = cli.main(job["argv"])
            else:
                rc = rec.run_job(job["id"], cli.main, job["argv"])
        except Exception as e:  # a traceback out of main is a failed job
            rc, exc = None, e
        t1 = time.perf_counter()
    return t1 - t0, rc, exc, err.getvalue()


class Checker:
    """Checks outputs, caching inputs and the risk reference table."""

    def __init__(self):
        self.samples = {}
        self.curves = {}
        self.table = None

    def values(self, path):
        if path not in self.samples:
            self.samples[path] = np.loadtxt(path, skiprows=1, ndmin=1)
        return self.samples[path]

    def __call__(self, job):
        """Returns (failures, risk values written, risk values trusted)."""
        spec, kind = job["spec"], job["kind"]
        with open(job["out"]) as fh:
            text = fh.read()
        if kind == "risk":
            if self.table is None:
                with open(os.path.join(HERE, "risk_reference.json")) as fh:
                    self.table = json.load(fh)
            return checks.check_risk(spec, text, self.table)
        if kind == "bounds":
            return checks.check_bounds(spec, text), 0, 0
        if kind == "plan":
            return checks.check_plan(spec, text), 0, 0
        if kind.startswith("select"):
            key = (spec["input"], spec["kernel"])
            if key not in self.curves:
                self.curves[key] = {}
            return checks.check_select(spec, text, self.values(spec["input"]),
                                       self.curves[key]), 0, 0
        if kind == "estimate":
            with open(os.path.splitext(job["out"])[0] + ".json") as fh:
                sidecar = fh.read()
            h_arg = None
            if "--h" in job["argv"]:
                h_arg = float(job["argv"][job["argv"].index("--h") + 1])
            return (checks.check_estimate(spec, text, sidecar, self.values(spec["input"]), h_arg),
                    0, 0)
        raise ValueError(kind)


def _evaluate(checker, job, rc, exc, err):
    if exc is not None:
        return [("exception", job["kind"], "", "%s: %s" % (type(exc).__name__, exc))], 0, 0
    if rc != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return [("exit-code", job["kind"], "", "exit %r: %s" % (rc, last[0]))], 0, 0
    try:
        return checker(job)
    except OSError as e:
        return [("no-output", job["kind"], "", str(e))], 0, 0
    except (KeyError, TypeError, ValueError, IndexError) as e:
        # output that parses but lacks a field or has the wrong shape
        return [("malformed-output", job["kind"], "", "%s: %s" % (type(e).__name__, e))], 0, 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cfkde.cli

    rec = None
    if args.mode == "trace":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    with open(os.path.join(args.work, "jobs.json")) as fh:
        plan = json.load(fh)
    for job in plan["warmup"]:
        _, rc, exc, err = _run_job(cfkde.cli, job, rec)
        if rc != 0:
            print("warm-up job %s failed: %r %s %s" % (job["argv"], rc, exc, err),
                  file=sys.stderr)
            return 1
    if rec is not None:
        rec.reset()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    # collect what import and warm-up left, then keep the collector off the
    # rest, so that the gc.collect() before each job (outside its timing)
    # scans only what the jobs made: about 3 ms instead of 35
    gc.collect()
    gc.freeze()

    checker = Checker()
    jobs = plan["pass"]
    latencies, failures, calibrations = [], {}, []
    failed = unknown = values = trusted = 0
    passes = 0
    target = args.passes
    while True:
        busy = 0.0
        for job in jobs:
            calibrations.append(_calibration())
            latency, rc, exc, err = _run_job(cfkde.cli, job, rec)
            busy += latency
            latencies.append(latency)
            found, v, t = _evaluate(checker, job, rc, exc, err)
            values += v
            trusted += t
            if not found:
                continue
            failed += 1
            marked = [("known-open" if checks.is_known(f) else "UNEXPECTED",) + f
                      for f in found]
            unknown += sum(m[0] == "UNEXPECTED" for m in marked)
            entry = failures.setdefault(job["id"], {"count": 0, "reasons": marked})
            entry["count"] += 1
        passes += 1
        if target is None:
            by_count = math.ceil(MIN_JOBS / len(jobs))
            target = max(1, by_count, int(round(args.seconds / busy)))
        elapsed = time.perf_counter() - start
        if passes >= target or (args.passes is None and elapsed + busy > WALL_LIMIT_S):
            break

    calibrations.append(_calibration())
    cal = np.asarray(calibrations)
    scaled = np.asarray(latencies) * REFERENCE_CALIBRATION_S / (0.5 * (cal[:-1] + cal[1:]))
    result = {
        "speed": REFERENCE_CALIBRATION_S / float(cal.mean()), "busy_s": sum(latencies),
        "latencies": scaled.tolist(), "jobs_per_pass": len(jobs), "passes": passes,
        "failed": failed, "unexpected": unknown, "failures": failures,
        "risk_values": values, "risk_trusted": trusted,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if rec is not None:
        rec.write(os.path.join(args.work, "spans.jsonl"))
        result["trace"] = rec.metrics(passes, 0.0)
    with open(os.path.join(args.work, "result-%s.json" % args.mode), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
