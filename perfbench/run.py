"""cfkde benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload risk-study --seed 1 --seconds 20 --trace 0

Workloads are defined in jobs.py.  The run generates its inputs from the seed
under .perfbench/ in the checkout, then starts worker processes (worker.py)
one after another.  With --trace 0 it starts SETUP_REPEATS workers: each is
timed from process start to the end of its warm-up (setup_s is the median),
and the last one goes on to run the measured passes.  With --trace 1 it runs
one untraced worker and then, in a fresh process, a traced worker over the
same number of passes, and reports the per-layer metrics of spans.py with the
tracing overhead.  Every time is reported at a reference machine speed
(see worker.py).  Every job's output is checked (checks.py); failures are
logged with their reason.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
from scipy.stats.mstats import hdquantiles

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _worker(mode, work, seconds, deadline, passes=None):
    """Run one worker to completion; returns (setup seconds, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--work", work, "--mode", mode,
           "--seconds", repr(float(seconds))]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError("%s worker exited with code %r" % (mode, code))
    if mode == "setup":
        return setup, None
    with open(os.path.join(work, "result-%s.json" % mode)) as fh:
        return setup, json.load(fh)


def _quantile(values, p):
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics,
    which moves smoothly where the jobs' costs are sparse, as around the
    risk-study median, instead of jumping from one job to the next."""
    return float(hdquantiles(values, prob=[p])[0])


def _end_to_end(res, setups):
    """The latencies come scaled to the reference speed (worker.py); set-up
    is scaled by the measuring worker's speed, as it runs just before."""
    lat_ms = 1e3 * np.asarray(res["latencies"])
    n = lat_ms.size
    return {
        "setup_s": {"value": res["speed"] * statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": n / (lat_ms.sum() / 1e3), "unit": "1/s"},
        "latency_p50_ms": {"value": _quantile(lat_ms, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": _quantile(lat_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_frac": {"value": 1.0 - res["failed"] / n, "unit": "ratio"},
        # share of written risk values that are right and not degraded;
        # 1 when the workload writes none
        "risk_trusted_frac": {
            "value": res["risk_trusted"] / res["risk_values"] if res["risk_values"] else 1.0,
            "unit": "ratio"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cfkde", "cli.py")):
        print("error: no cfkde sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        plan = jobs.build(args.workload, args.seed, work)
        with open(os.path.join(work, "jobs.json"), "w") as fh:
            json.dump(plan, fh)
        if args.trace:
            _, base = _worker("measure", work, args.seconds, deadline)
            _, res = _worker("trace", work, args.seconds, deadline, passes=base["passes"])
            overhead = 1.0 - sum(base["latencies"]) / sum(res["latencies"])
            metrics = res["trace"]
            metrics["trace.overhead"]["value"] = overhead
            for m in metrics.values():
                if m["unit"] == "ms":
                    m["value"] *= res["speed"]
            keep = os.path.join(ROOT, ".perfbench", "spans-%s-%d.jsonl"
                                % (args.workload, args.seed))
            shutil.copyfile(os.path.join(work, "spans.jsonl"), keep)
            print("spans written to %s" % os.path.relpath(keep, ROOT))
        else:
            setups = []
            for i in range(SETUP_REPEATS):
                mode = "measure" if i == SETUP_REPEATS - 1 else "setup"
                setup, res = _worker(mode, work, args.seconds, deadline)
                setups.append(setup)
            metrics = _end_to_end(res, setups)
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(res["latencies"])
    print("%s seed %d: %d jobs in %d passes of %d, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, attempted, res["passes"], res["jobs_per_pass"],
             res["failed"], res["failed"] / attempted))
    print("times below are scaled to the reference speed; speed factor %.4f, "
          "unscaled busy time %.3f s" % (res["speed"], res["busy_s"]))
    for job_id, entry in sorted(res["failures"].items()):
        reasons = entry["reasons"]
        print("  FAIL %s x%d: %s %s %s %s: %s" % ((job_id, entry["count"]) + tuple(reasons[0])))
        for reason in reasons[1:]:
            print("      and %s %s %s %s: %s" % tuple(reason))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": res["unexpected"] == 0, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
