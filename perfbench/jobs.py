"""Workload definitions: the job list of one pass, made from a seed.

A pass is a fixed mix of `cfkde` invocations.  The seed chooses the inputs
(bandwidths, constants, samples) but not the mix, so every seed gives the
same number of jobs of each kind and size and the timing quantiles stay
comparable between seeds.  The program sees only the generated CSV files and
the argument vectors.
"""

import os

import numpy as np

import refs

WORKLOADS = ("risk-study", "select-ucv", "estimate-grid")

# the mixture that the reference table was built for
_MIXTURE_ARGS = [arg for key, values in refs.MIXTURE.items()
                 for arg in ("--param", "%s=%s" % (key, ",".join(repr(float(v)) for v in values)))]


def _density_args(name):
    return ["--density", name] + (_MIXTURE_ARGS if name == "mixture" else [])


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# risk-study


# every built-in density x kernel is swept at the sample sizes below; a
# sweep holds three lattice bandwidths, one per decade, at the same position
# in each decade.  The uniform density with the epanechnikov or uniform
# kernel costs about 0.5 to 1.4 s per bandwidth, and the mixture's model
# set-up about 0.15 s per call, so those cells are swept less often; the
# slow uniform cells run each of their three bandwidths as a job of its own,
# which puts six jobs of 0.5 to 1.4 s beside the four bounds tables of that
# cost, where p90 falls: a quantile set by many jobs spread over the run
# moves less with the machine's speed than one set by two.  The positions
# are fixed, so every seed runs the same bandwidths (and hits the
# same known failures); the seed picks the Monte Carlo seeds and the plan
# parameters.
SWEEP_N = (100, 100, 1000, 1000, 10000)
FEW_SWEEPS_N = {"mixture": (100, 1000)}
UNIFORM_SLOW = (("uniform", "epanechnikov"), ("uniform", "uniform"))
# lattice position within each decade, by sample size and sweep
SWEEP_POS = {100: (1, 6), 1000: (3, 8), 10000: (5,)}
# cells whose first n=100 sweep also carries Monte Carlo columns
MC_CELLS = (("normal", "gaussian"), ("mixture", "epanechnikov"), ("fejer", "gaussian"))
MC_REPS = 30
BOUNDS_N = (100, 10000)


def _risk_study(rng, work):
    jobs = []
    lattice = refs.H_LATTICE
    for density in refs.DENSITIES:
        for kernel in refs.KERNELS:
            slow = (density, kernel) in UNIFORM_SLOW
            sizes = (100,) if slow else FEW_SWEEPS_N.get(density, SWEEP_N)
            for s, n in enumerate(sizes):
                pos = SWEEP_POS[n][sizes[:s].count(n)]
                sweep = [10 * j + pos for j in range(3)]
                for idx in ([[i] for i in sweep] if slow else [sweep]):
                    spec = {"density": density, "kernel": kernel, "n": n, "h_index": idx}
                    argv = ["risk"] + _density_args(density) + [
                        "--kernel", kernel, "--n", str(n),
                        "--h-grid", ",".join(_fmt(lattice[i]) for i in idx)]
                    if s == 0 and (density, kernel) in MC_CELLS:
                        argv += ["--mc", str(MC_REPS),
                                 "--seed", str(int(rng.integers(0, 2**31)))]
                        spec["mc"] = MC_REPS
                    jobs.append({"kind": "risk", "argv": argv, "spec": spec, "ext": "csv"})
    for density in refs.DENSITIES:
        for kernel in ("gaussian", "epanechnikov"):
            for n in BOUNDS_N:
                argv = ["bounds"] + _density_args(density) + ["--kernel", kernel, "--n", str(n)]
                jobs.append({"kind": "bounds", "argv": argv,
                             "spec": {"density": density, "kernel": kernel, "n": n},
                             "ext": "csv"})
    jobs.extend(_plan_jobs(rng) + _plan_jobs(rng))
    return jobs


def _plan_jobs(rng):
    eps = lambda: float(10.0 ** rng.uniform(-4.0, -2.0))
    out = []
    for kernel in ("gaussian", "epanechnikov"):
        v2 = float(rng.uniform(0.5, 3.0))
        e = eps()
        out.append({"kind": "plan", "ext": "json",
                    "argv": ["plan", "--target", "mise", "--eps", _fmt(e), "--v2", _fmt(v2),
                             "--kernel", kernel],
                    "spec": {"route": "mise", "kernel": kernel, "eps": e, "params": {"v2": v2}}})
    variation, e = float(rng.uniform(1.0, 4.0)), eps()
    out.append({"kind": "plan", "ext": "json",
                "argv": ["plan", "--target", "mise", "--eps", _fmt(e), "--regime", "nonsmooth",
                         "--variation", _fmt(variation)],
                "spec": {"route": "nonsmooth", "eps": e, "params": {"variation": variation}}})
    vm, e = float(rng.uniform(0.5, 3.0)), eps()
    out.append({"kind": "plan", "ext": "json",
                "argv": ["plan", "--target", "mise", "--eps", _fmt(e), "--regime", "smooth",
                         "--m", "2", "--vm", _fmt(vm)],
                "spec": {"route": "smooth", "eps": e, "params": {"m": 2, "vm": vm}}})
    return out


# ---------------------------------------------------------------------------
# data-side samples


SAMPLE_DENSITIES = ("normal", "mixture", "laplace", "uniform")


def draw(name, rng, n):
    """A sample from one of the built-in targets, drawn with numpy."""
    if name == "normal":
        return rng.normal(0.0, 1.0, n)
    if name == "mixture":
        comp = rng.random(n) < 0.5
        return np.where(comp, rng.normal(-1.5, 0.5, n), rng.normal(1.5, 0.5, n))
    if name == "laplace":
        return rng.laplace(0.0, 1.0, n)
    if name == "uniform":
        return rng.uniform(0.0, 1.0, n)
    raise ValueError(name)


def _write_sample(work, name, values):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write("x\n")
        fh.write("\n".join(repr(float(v)) for v in values))
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# select-ucv


# (n, kernel, jobs per pass) over a decade of n up to 2000, then the
# parametric jobs.  Sizes are laid out so that the median and p90 latencies
# fall inside blocks of equal-cost jobs (n=399 gaussian; n=1002 gaussian):
# a quantile that falls between two job sizes moves with every small delay.
UCV_JOBS = (
    (200, "gaussian", 6), (200, "epanechnikov", 4), (252, "gaussian", 2),
    (252, "epanechnikov", 2), (200, "sinc", 2),
    (399, "gaussian", 16),
    (399, "epanechnikov", 1), (317, "sinc", 1), (502, "gaussian", 1),
    (502, "epanechnikov", 1), (632, "gaussian", 1), (502, "sinc", 1),
    (796, "gaussian", 1), (632, "epanechnikov", 1),
    (1002, "gaussian", 5),
    (2000, "gaussian", 1), (1589, "epanechnikov", 1), (1262, "sinc", 1),
)
UCV_GRID = 20
PARAMETRIC_JOBS = ((200, "sinc"), (632, "sinc"), (796, "gaussian"), (2000, "gaussian"))


def _select_ucv(rng, work):
    jobs = []
    k = 0
    for b, (n, kernel, count) in enumerate(UCV_JOBS):
        # one target per block: the kernel sums' cost depends on the spread
        density = SAMPLE_DENSITIES[b % len(SAMPLE_DENSITIES)]
        for _ in range(count):
            values = draw(density, rng, n)
            path = _write_sample(work, "ucv-%d.csv" % k, values)
            scale = float(np.std(values, ddof=1)) * n ** -0.2
            grid = "%s:%s:%d" % (_fmt(0.05 * scale), _fmt(3.0 * scale), UCV_GRID)
            jobs.append({"kind": "select", "ext": "json",
                         "argv": ["select", "--input", path, "--method", "ucv",
                                  "--kernel", kernel, "--h-grid", grid],
                         "spec": {"input": path, "kernel": kernel, "q": "unbiased"}})
            k += 1
    for i, (n, kernel) in enumerate(PARAMETRIC_JOBS):
        density = SAMPLE_DENSITIES[i % len(SAMPLE_DENSITIES)]
        path = _write_sample(work, "par-%d.csv" % i, draw(density, rng, n))
        jobs.append({"kind": "select-parametric", "ext": "json",
                     "argv": ["select", "--input", path, "--method", "ucv",
                              "--q-estimator", "parametric", "--kernel", kernel],
                     "spec": {"input": path, "kernel": kernel, "q": "parametric"}})
    return jobs


# ---------------------------------------------------------------------------
# estimate-grid


# (n, kernel, grid size, bandwidth, jobs per pass); bandwidth "h" is --h,
# "rot" is --method rot-normal; sinc always runs with --correct.  Most jobs
# are small; as for select-ucv the median falls inside the n <= 1778 block of
# 512-point gaussian/epanechnikov --h jobs and p90 inside the n=17783 block.
EST_JOBS = (
    (1000, "gaussian", 512, "rot", 10),
    (1000, "gaussian", 512, "h", 8), (1000, "epanechnikov", 512, "h", 8),
    (1778, "gaussian", 512, "h", 8), (1778, "epanechnikov", 512, "h", 8),
    (1000, "sinc", 512, "h", 2), (1778, "sinc", 512, "h", 2),
    (3162, "gaussian", 512, "h", 1), (3162, "epanechnikov", 512, "h", 1),
    (3162, "gaussian", 512, "rot", 1), (1000, "gaussian", 2048, "h", 2),
    (1000, "epanechnikov", 2048, "h", 1), (3162, "sinc", 512, "h", 1),
    (5623, "gaussian", 512, "rot", 1), (5623, "gaussian", 512, "h", 1),
    (1778, "gaussian", 2048, "h", 1), (1000, "sinc", 2048, "h", 1),
    (17783, "gaussian", 512, "h", 5),
    (10000, "gaussian", 2048, "h", 1), (31623, "sinc", 512, "h", 1),
    (56234, "epanechnikov", 512, "h", 1), (100000, "gaussian", 512, "rot", 1),
)


def _estimate_grid(rng, work):
    jobs = []
    k = 0
    for b, (n, kernel, grid, bandwidth, count) in enumerate(EST_JOBS):
        density = SAMPLE_DENSITIES[b % 3]
        for _ in range(count):
            correct = kernel == "sinc"
            values = draw(density, rng, n)
            path = _write_sample(work, "est-%d.csv" % k, values)
            argv = ["estimate", "--input", path, "--kernel", kernel,
                    "--grid-size", str(grid)]
            if bandwidth == "rot":
                argv += ["--method", "rot-normal"]
            else:
                argv += ["--h", _fmt(refs.rot_normal_h(values) * rng.uniform(0.6, 1.4))]
            if correct:
                argv.append("--correct")
            jobs.append({"kind": "estimate", "ext": "csv", "argv": argv,
                         "spec": {"input": path, "kernel": kernel, "correct": correct,
                                  "grid": grid, "rot": bandwidth == "rot"}})
            k += 1
    return jobs


_PASS_MAKERS = {"risk-study": _risk_study, "select-ucv": _select_ucv,
             "estimate-grid": _estimate_grid}


def _warmup(workload, rng, work):
    """One small job of each kind, touching every kernel the pass uses."""
    if workload == "risk-study":
        jobs = [{"kind": "risk", "ext": "csv",
                 "argv": ["risk", "--density", "fejer", "--kernel", k, "--n", "100",
                          "--h-grid", "0.1,1.0"]} for k in refs.KERNELS]
        jobs.append({"kind": "risk", "ext": "csv",
                     "argv": ["risk", "--density", "normal", "--n", "100", "--h-grid", "0.3",
                              "--mc", "2"]})
        jobs.append({"kind": "risk", "ext": "csv",
                     "argv": ["risk"] + _density_args("mixture") + ["--n", "100",
                                                                     "--h-grid", "0.3"]})
        jobs.append({"kind": "bounds", "ext": "csv",
                     "argv": ["bounds", "--density", "fejer", "--kernel", "epanechnikov",
                              "--n", "100"]})
        jobs.extend(_plan_jobs(rng))
        return jobs
    path = _write_sample(work, "warm.csv", draw("normal", rng, 200))
    if workload == "select-ucv":
        jobs = [{"kind": "select", "ext": "json",
                 "argv": ["select", "--input", path, "--method", "ucv", "--kernel", k,
                          "--h-grid", "0.1:1:4"]} for k in ("gaussian", "epanechnikov", "sinc")]
        jobs.append({"kind": "select", "ext": "json",
                     "argv": ["select", "--input", path, "--method", "ucv",
                              "--q-estimator", "parametric", "--h-grid", "0.1:1:4"]})
        return jobs
    jobs = [{"kind": "estimate", "ext": "csv",
             "argv": ["estimate", "--input", path, "--kernel", k, "--h", "0.4",
                      "--grid-size", "64"] + (["--correct"] if k == "sinc" else [])}
            for k in ("gaussian", "epanechnikov", "sinc")]
    jobs.append({"kind": "estimate", "ext": "csv",
                 "argv": ["estimate", "--input", path, "--method", "rot-normal",
                          "--grid-size", "64"]})
    return jobs


def _spread(jobs):
    """The jobs in golden-ratio order, so that any run of neighbours in the
    made order (one cell's sweeps, one block of equal-sized samples) is spread
    evenly over the pass.  The machine's speed drifts over seconds; jobs of
    nearly equal cost, which set the latency quantiles, then meet different
    stretches of it instead of one slow stretch moving them all."""
    golden = (5.0 ** 0.5 - 1.0) / 2.0
    return [jobs[j] for j in sorted(range(len(jobs)), key=lambda j: (j * golden) % 1.0)]


def build(workload, seed, work):
    """Write the inputs under `work` and return {"warmup": [...], "pass": [...]}."""
    if workload not in _PASS_MAKERS:
        raise ValueError("unknown workload %r, expected one of %s"
                         % (workload, ", ".join(WORKLOADS)))
    rng = np.random.default_rng(seed)
    jobs = _spread(_PASS_MAKERS[workload](rng, work))
    warm = _warmup(workload, rng, work)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    for prefix, items in (("job", jobs), ("warm", warm)):
        for i, job in enumerate(items):
            job["id"] = "%s-%03d" % (prefix, i)
            job["out"] = os.path.join(out_dir, "%s.%s" % (job["id"], job["ext"]))
            job["argv"] = job["argv"] + ["--output", job["out"]]
            job.setdefault("spec", {})
    return {"warmup": warm, "pass": jobs}

