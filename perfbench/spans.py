"""Span recorder for the traced run.

`install` wraps the public functions of every cfkde module wherever their
names are bound (the defining module, every module that imported the name
and the package namespace), so a call such as cli -> risk.exact_mise or
selector -> risk.integrated_sq_bias cannot bypass its span.  Each span keeps
(name, start, end, parent, job).  The per-point callables of the models that
`make_density` and `make_builtin` return (charfun.cf, charfun.cf_sq_tail,
kernels.cf, .one_minus_cf, .eval, .selfconv) are called up to millions of
times, so they only add to counters and busy time; their time is charged to
the enclosing span as child time.  cli's own work (argument parsing, the
sample read, output formatting and writing) gets spans of its own from the
helpers in CLI_HELPERS.  Nothing under src/ changes.

Coverage is the share of traced job time spent inside a named span other
than cli.main: the time cli.main spends in its own body (command dispatch,
row building, the glue of the bounds table) is not covered, so coverage
falls when work moves into code that no span names.

Run it in a process of its own: wrapping replaces module attributes for the
rest of the process, and kernels._CACHE keeps the models it has built.
"""

import dataclasses
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("charfun", "kernels", "estimator", "risk", "bounds", "selector", "cli")
# cli helpers that do its parsing, CSV read and output write
CLI_HELPERS = ("build_parser", "resolve_config", "_read_sample", "_csv_text", "_json_text",
               "_write_atomic")

# (metric, unit) reported by the traced run, per pass of the workload.
PER_LAYER = (
    [("charfun.cf." + s, u) for s, u in (("calls", "count"), ("points", "count"),
                                         ("points_per_call", "count"), ("self_ms", "ms"))]
    + [("charfun.cf_sq_tail.calls", "count"), ("charfun.cf_sq_tail.self_ms", "ms"),
       ("charfun.make_density.calls", "count"), ("charfun.make_density.self_ms", "ms"),
       ("charfun.ecf.calls", "count"), ("charfun.ecf.points", "count"),
       ("charfun.ecf.self_ms", "ms")]
    + [("kernels.%s.%s" % (f, s), u) for f in ("cf", "one_minus_cf", "eval", "selfconv")
       for s, u in (("calls", "count"), ("points", "count"), ("self_ms", "ms"))]
    + [("estimator.kde_eval.calls", "count"), ("estimator.kde_eval.self_ms", "ms"),
       ("estimator.kde_eval.pairs", "count"), ("estimator.estimate_on_grid.self_ms", "ms"),
       ("estimator.correct_to_density.self_ms", "ms")]
    + [("risk.%s.%s" % (f, s), u)
       for f in ("exact_mise", "integrated_sq_bias", "exact_mse", "exact_bias", "mc_mise")
       for s, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("risk.exact_mise.degraded", "count"),
       ("bounds.calls", "count"), ("bounds.self_ms", "ms"), ("bounds.inapplicable", "count"),
       ("selector.cv_bandwidth.calls", "count"), ("selector.cv_bandwidth.self_ms", "ms"),
       ("selector.cv_bandwidth.pairs", "count"),
       ("selector.rule_of_thumb_normal.self_ms", "ms"),
       ("selector.plan_sample_size.self_ms", "ms"),
       ("cli.main.self_ms", "ms")]
    + [("%s.errors" % m, "count") for m in MODULES]
    + [("job.self_ms", "ms"), ("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
)


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stats = {}
        self.reset()

    def reset(self):
        """Forget spans and zero the counters in place (wrappers hold them)."""
        self.spans = []
        self.stack = []  # [child time, span index] per open span
        for st in self.stats.values():
            st.update(dict.fromkeys(st, 0))
        self.errors = dict.fromkeys(MODULES, 0)
        self.job = None

    def stat(self, name):
        return self.stats.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0,
                                            "points": 0, "pairs": 0, "degraded": 0,
                                            "inapplicable": 0})

    def call(self, name, module, fn, args, kwargs):
        frame = [0.0, len(self.spans)]
        parent = self.stack[-1][1] if self.stack else None
        self.spans.append(None)
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if module is not None:
                self.errors[module] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            st = self.stat(name)
            st["calls"] += 1
            st["total"] += t1 - t0
            st["self"] += t1 - t0 - frame[0]
            if self.stack:
                self.stack[-1][0] += t1 - t0
            self.spans[frame[1]] = (name, t0 - self.origin, t1 - self.origin, parent, self.job)

    def run_job(self, job_id, fn, *args):
        self.job = job_id
        try:
            return self.call("job", None, fn, args, {})
        finally:
            self.job = None

    def pointwise(self, name, module, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                st["calls"] += 1
                st["self"] += dt
                st["total"] += dt
                st["points"] += int(np.size(args[0])) if args else 1
                if self.stack:
                    self.stack[-1][0] += dt

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ms": 1e3 * start, "end_ms": 1e3 * end,
                                     "parent": parent, "job": job}) + "\n")

    def metrics(self, passes, overhead):
        """Per-layer metrics, each divided by the number of passes run."""
        out = {}
        job = self.stat("job")
        covered = sum(s["self"] for name, s in self.stats.items()
                      if name not in ("job", "cli.main"))
        cli_own = sum(s["self"] for name, s in self.stats.items() if name.startswith("cli."))
        for metric, unit in PER_LAYER:
            key, _, field = metric.rpartition(".")
            if field == "errors":
                value = self.errors[key] / passes
            elif metric == "job.self_ms":
                value = 1e3 * job["self"] / passes
            elif metric == "cli.main.self_ms":
                value = 1e3 * cli_own / passes
            elif metric == "trace.coverage":
                value = covered / job["total"] if job["total"] else 0.0
            elif metric == "trace.overhead":
                value = overhead
            else:
                st = self.stat(key)
                if field == "self_ms":
                    value = 1e3 * st["self"] / passes
                elif field == "points_per_call":
                    value = st["points"] / st["calls"] if st["calls"] else 0.0
                else:
                    value = st[field] / passes
            out[metric] = {"value": value, "unit": unit}
        return out


def _after_hooks(rec):
    """Counters read from a call's arguments or result, keyed by span name."""
    kernels_seen = {}  # id -> (model, wrapped); holding the model keeps its id unique

    def make_density(st, args, kwargs, model):
        return dataclasses.replace(
            model, cf=rec.pointwise("charfun.cf", "charfun", model.cf),
            cf_sq_tail=rec.pointwise("charfun.cf_sq_tail", "charfun", model.cf_sq_tail))

    def make_builtin(st, args, kwargs, model):
        if id(model) not in kernels_seen:
            fields = {f: rec.pointwise("kernels." + f, "kernels", getattr(model, f))
                      for f in ("cf", "one_minus_cf", "eval", "selfconv")
                      if getattr(model, f) is not None}
            kernels_seen[id(model)] = (model, dataclasses.replace(model, **fields))
        return kernels_seen[id(model)][1]

    def exact_mise(st, args, kwargs, report):
        st["degraded"] += int(bool(report.degraded))
        return report

    def bound(st, args, kwargs, result):
        if hasattr(result, "applicable"):
            st["inapplicable"] += int(not result.applicable)
        return result

    def kde_eval(st, args, kwargs, result):
        x = args[3] if len(args) > 3 else kwargs["x"]
        st["pairs"] += args[0].n * int(np.size(x))
        return result

    def cv_bandwidth(st, args, kwargs, result):
        n = args[0].n
        st["pairs"] += n * (n - 1) // 2 * len(result.criterion_curve)
        return result

    def ecf(st, args, kwargs, result):
        st["points"] += int(np.size(args[1] if len(args) > 1 else kwargs["t"]))
        return result

    def main(st, args, kwargs, code):
        if code != 0:
            rec.errors["cli"] += 1
        return code

    return {"charfun.make_density": make_density, "kernels.make_builtin": make_builtin,
            "risk.exact_mise": exact_mise, "bounds": bound, "estimator.kde_eval": kde_eval,
            "selector.cv_bandwidth": cv_bandwidth, "charfun.ecf": ecf, "cli.main": main}


def install(rec):
    """Wrap every public cfkde function wherever its name is bound."""
    package = importlib.import_module("cfkde")
    modules = {m: importlib.import_module("cfkde." + m) for m in MODULES}
    namespaces = list(modules.values()) + [package]
    hooks = _after_hooks(rec)
    for module, mod in modules.items():
        for fname in mod.__all__ + (list(CLI_HELPERS) if module == "cli" else []):
            orig = getattr(mod, fname)
            if not inspect.isfunction(orig):
                continue
            name = "bounds" if module == "bounds" else "%s.%s" % (module, fname)
            wrapped = _wrap(rec, name, module, orig, hooks.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)


def _wrap(rec, name, module, fn, after):
    def wrapper(*args, **kwargs):
        result = rec.call(name, module, fn, args, kwargs)
        if after is not None:
            result = after(rec.stat(name), args, kwargs, result)
        return result

    return wrapper
