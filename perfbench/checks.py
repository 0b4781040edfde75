"""Output checks: every job's output file is parsed by column or key name and
compared with an independent reference from refs.py.

A check returns a list of failures, each a (kind, cell, site, message)
tuple: the cell names the density/kernel or the like, the site where the
output is wrong ("n=100 h#21" is sample size 100 at point 21 of the reference
table's bandwidth lattice, "n=100 thm3.bound" a bounds-table cell; "" when
the whole output is at fault).  The tolerances are set at what a user reading
the output could tell apart:

* risk values: |value - ref| <= quad_error + ref_error, where ref_error is the
  reference's own numerical error plus six significant digits of the
  reference (1e-6 |ref|);
* bounds: every cell parses as a number, and an applicable bound is not
  below the exact risk by more than six significant digits;
* plan: the certified bound meets epsilon at n0 and not at n0 - 1;
* select: the reference criterion at the chosen h is within 1e-6 of the
  criterion's largest magnitude from the reference minimum over the grid;
* estimate: sampled grid points agree with a direct sum within 1e-4 of the
  peak (a tenth of a pixel on a 1000-pixel plot); a corrected curve has mass
  1 within 1e-6 and no negative value.
"""

import csv
import io
import json
import math

import numpy as np

import refs

SIX_DIGITS = 1e-6
PLOT_RESOLUTION = 1e-4

_REPR_DEFECT = "cli._cell writes repr() of numpy scalars, e.g. np.float64(0.0148...)"
_QUAD_DEFECT = ("exact_mise lies outside its own error bar: the transform-side quadrature "
                "cannot resolve the cutoff it picks")

# Seed defects that are counted as failures but do not mark the run as
# incorrect, pinned to the (kind, cell, site) where each shows at the seed.
# Any other failure, also one of the same kind or in the same cell, does.
KNOWN_OPEN = dict(
    [(("risk-outside-error-bar", "uniform/" + kernel, "n=100 h#%d" % idx), _QUAD_DEFECT)
     for kernel in ("epanechnikov", "uniform") for idx in (1, 21)]
    + [(("bounds-unparsable-cell", "%s/epanechnikov" % density, "n=%d %s.%s" % (n, tid, col)),
        _REPR_DEFECT)
       for density, tids in (("normal", ("lemma1", "thm3", "thm4")),
                             ("mixture", ("lemma1", "thm3", "thm4")),
                             ("laplace", ("lemma1",)), ("fejer", ("lemma1",)))
       for n in (100, 10000) for tid in tids for col in ("bound", "ratio")])


def _rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames or [], list(reader)


def _float(cell):
    """Parse a numeric cell; None when it does not parse."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def check_risk(spec, text, table):
    """Returns (failures, values written, values trusted)."""
    failures = []
    cell = "%s/%s" % (spec["density"], spec["kernel"])
    header, rows = _rows(text)
    need = ["h", "exact_mise", "quad_error"] + (["mc_mise", "mc_se"] if spec.get("mc") else [])
    missing = [c for c in need if c not in header]
    if missing or len(rows) != len(spec["h_index"]):
        return [("risk-format", cell, "", "columns %s, %d rows" % (header, len(rows)))], 0, 0
    trusted = 0
    entries = table["cells"][cell]
    for row, idx in zip(rows, spec["h_index"]):
        h_ref = table["h_lattice"][idx]
        h, value, qe = (_float(row[c]) for c in ("h", "exact_mise", "quad_error"))
        if h is None or value is None or qe is None or qe < 0.0:
            failures.append(("risk-format", cell, "", "unparsable row %s" % dict(row)))
            continue
        if abs(h - h_ref) > 1e-12 * h_ref:
            failures.append(("risk-format", cell, "", "h %r is not the requested %r" % (h, h_ref)))
            continue
        ref, ref_err = refs.mise(entries[idx], spec["kernel"], h, spec["n"])
        ref_err += SIX_DIGITS * abs(ref)
        ok = abs(value - ref) <= qe + ref_err
        if not ok:
            failures.append(("risk-outside-error-bar", cell, "n=%d h#%d" % (spec["n"], idx),
                             "n=%d h=%.4g: exact_mise %.6g, reference %.6g, quad_error %.2g"
                             % (spec["n"], h, value, ref, qe)))
        # the library's own degraded rule, recomputed from the CSV
        if ok and qe <= 1e-6 * max(1.0, abs(value)):
            trusted += 1
        if spec.get("mc"):
            mc, se = _float(row["mc_mise"]), _float(row["mc_se"])
            if mc is None or se is None or mc < 0.0 or se < 0.0:
                failures.append(("risk-format", cell, "", "bad Monte Carlo cells %s" % dict(row)))
    return failures, len(rows), trusted


BOUNDS_HEADER = ["theorem_id", "h_n", "bound", "exact", "ratio", "applicable"]


def check_bounds(spec, text):
    cell = "%s/%s" % (spec["density"], spec["kernel"])
    header, rows = _rows(text)
    if header != BOUNDS_HEADER or len(rows) != 16:
        return [("bounds-format", cell, "", "header %s, %d rows" % (header, len(rows)))]
    failures = []
    for row in rows:
        tid = row["theorem_id"]
        nums = {}
        for col in ("h_n", "bound", "exact", "ratio"):
            raw = row[col]
            nums[col] = None if raw == "" else _float(raw)
            if raw != "" and nums[col] is None:
                failures.append(("bounds-unparsable-cell", cell,
                                 "n=%d %s.%s" % (spec["n"], tid, col),
                                 "%s=%r in the %s row" % (col, raw, tid)))
        applicable = row["applicable"]
        if applicable not in ("true", "false"):
            failures.append(("bounds-format", cell, "", "%s applicable=%r" % (tid, applicable)))
            continue
        bound, exact = nums["bound"], nums["exact"]
        if applicable == "false" and row["bound"] != "":
            failures.append(("bounds-format", cell, "", "%s inapplicable with a bound" % tid))
        if applicable == "true" and row["bound"] == "":
            failures.append(("bounds-format", cell, "", "%s applicable without a bound" % tid))
        if bound is not None and exact is not None and bound < exact * (1.0 - SIX_DIGITS):
            failures.append(("bound-below-exact", cell, "n=%d %s" % (spec["n"], tid),
                             "bound %.6g < exact %.6g" % (bound, exact)))
    return failures


def check_plan(spec, text):
    cell = spec["route"]
    try:
        out = json.loads(text)
        n0, cert = int(out["n0"]), float(out["certified_bound"])
        c, r = float(out["constant"]), float(out["rate"])
    except (ValueError, KeyError, TypeError) as exc:
        return [("plan-format", cell, "", "unreadable plan output: %s" % exc)]
    eps = spec["eps"]
    c_ref, r_ref = refs.plan_constant(spec["route"], spec["params"], spec.get("kernel"))
    failures = []
    if abs(c - c_ref) > 1e-9 * c_ref or abs(r - r_ref) > 1e-12:
        failures.append(("plan-constant", cell, "", "C n^-r with C=%r r=%r, reference C=%r r=%r"
                         % (c, r, c_ref, r_ref)))
    if n0 < 1 or cert > eps or abs(cert - c_ref * n0 ** -r_ref) > 1e-9 * cert:
        failures.append(("plan-certificate", cell, "",
                         "n0=%d certified %r eps %r" % (n0, cert, eps)))
    elif n0 > 1 and c_ref * (n0 - 1.0) ** -r_ref <= eps:
        failures.append(("plan-not-least", cell, "",
                         "n0=%d but n0-1 already meets eps %r" % (n0, eps)))
    return failures


def check_select(spec, text, values, cache):
    """`cache` maps a grid (as a tuple) to its reference curve for this input."""
    cell = "%s/%s" % (spec["q"], spec["kernel"])
    try:
        out = json.loads(text)
        h = float(out["h"])
        curve = np.array(out["criterion_curve"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [("select-format", cell, "", "unreadable select output: %s" % exc)]
    if curve.ndim != 2 or curve.shape[1] != 2 or not (h > 0.0) or h not in curve[:, 0]:
        return [("select-format", cell, "", "h %r not on the criterion grid" % h)]
    grid = curve[:, 0]
    if tuple(grid) not in cache:
        if spec["q"] == "unbiased":
            cache[tuple(grid)] = refs.ucv_curve(values, spec["kernel"], grid)
        else:
            sigma = float(np.std(values, ddof=1))
            cache[tuple(grid)] = refs.parametric_curve(sigma, spec["kernel"], grid, values.size)
    ref = cache[tuple(grid)]
    at_h = float(ref[list(grid).index(h)])
    tol = SIX_DIGITS * float(np.max(np.abs(ref)))
    if at_h - float(ref.min()) > tol:
        return [("select-not-minimum", cell, "",
                 "n=%d h=%.5g: reference criterion %.8g, minimum %.8g at h=%.5g"
                 % (values.size, h, at_h, ref.min(), grid[int(np.argmin(ref))]))]
    return []


def check_estimate(spec, text, sidecar_text, values, h_arg):
    cell = spec["kernel"] + ("+correct" if spec["correct"] else "")
    header, rows = _rows(text)
    try:
        meta = json.loads(sidecar_text)
        xs = np.array([float(r["x"]) for r in rows])
        ys = np.array([float(r["y"]) for r in rows])
    except (ValueError, KeyError, TypeError) as exc:
        return [("estimate-format", cell, "", "unreadable estimate output: %s" % exc)]
    if header != ["x", "y"] or xs.size != spec["grid"] or not np.all(np.isfinite(ys)):
        return [("estimate-format", cell, "", "header %s, %d rows" % (header, xs.size))]
    steps = np.diff(xs)
    if np.any(steps <= 0.0) or np.ptp(steps) > 1e-9 * steps[0] * xs.size:
        return [("estimate-format", cell, "", "grid is not uniform and increasing")]
    h = float(meta["h"])
    h_ref = refs.rot_normal_h(values) if spec["rot"] else h_arg
    if abs(h - h_ref) > 1e-9 * h_ref:
        return [("estimate-bandwidth", cell, "", "h %r, expected %r" % (h, h_ref))]
    failures = []
    picks = np.unique(np.linspace(0, xs.size - 1, 7).astype(int)[1:-1].tolist()
                      + [int(np.argmax(ys))])
    direct = refs.kde_direct(values, spec["kernel"], h, xs[picks])
    if spec["correct"]:
        direct = np.maximum(direct - float(meta["xi"]), 0.0)
    err = float(np.max(np.abs(ys[picks] - direct)))
    if err > PLOT_RESOLUTION * float(np.max(np.abs(ys))):
        failures.append(("estimate-direct-sum", cell, "",
                         "n=%d: grid values differ from a direct sum by %.3g" % (values.size, err)))
    if spec["correct"]:
        mass = float(np.trapezoid(ys, xs))
        if abs(mass - 1.0) > SIX_DIGITS or ys.min() < 0.0:
            failures.append(("estimate-not-density", cell, "",
                             "mass %.9f, min %.3g" % (mass, ys.min())))
    return failures


def is_known(failure):
    return failure[:3] in KNOWN_OPEN
