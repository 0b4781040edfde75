"""Command-line front end.

Subcommands: estimate (density estimate on a grid), risk (exact integrated
risk sweeps), bounds (theorem bounds versus exact risk), select (bandwidth
selection), plan (sample-size planning). Outputs are plot-ready CSV or JSON,
written atomically. Exit codes: 0 success, 2 usage or configuration error,
3 numerical-feasibility error.
"""

import argparse
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
from typing import Dict, Optional, Tuple, get_args, get_origin

import numpy as np

from . import bounds
from .charfun import DensityModel, as_sample, make_density
from .estimator import CorrectionInfeasibleError, estimate_on_grid
from .kernels import BUILTIN_KERNELS, KernelModel, make_builtin
from .risk import exact_mise, exact_mse, mc_mise
from .selector import (
    PlanRequest,
    SelectorResult,
    bound_rule,
    cv_bandwidth,
    plan_bound_constant,
    plan_sample_size,
    rule_of_thumb_normal,
)

__all__ = ["RunConfig", "main"]

_OUTPUT_DIR_ENV = "CFKDE_OUTPUT_DIR"
# numpy's loadtxt reads a file it opens itself in blocks, but an open handle
# line by line, about 0.1 us a line slower; opening the file again costs about
# 50 us, and the two break even near 12 KiB (600 lines of 17-digit values), so
# a larger sample file is handed to it by name
_READ_BY_NAME = 12 << 10
# names that loadtxt, unlike open(), would decompress
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one command invocation."""

    command: str
    input_path: Optional[str] = None
    density: Optional[str] = None
    density_params: Optional[Dict[str, object]] = None
    kernel: str = "gaussian"
    h: Optional[float] = None
    h0: float = 1.0
    h_grid: Optional[str] = None
    n: Optional[int] = None
    m: int = 2
    method: Optional[str] = None
    q_estimator: str = "unbiased"
    sigma_hat: Optional[float] = None
    correct: bool = False
    grid_size: int = 512
    mc: Optional[int] = None
    target: Optional[str] = None
    epsilon: Optional[float] = None
    v2: Optional[float] = None
    v3: Optional[float] = None
    a: Optional[float] = None
    variation: Optional[float] = None
    vm: Optional[float] = None
    regime: Optional[str] = None
    output_path: Optional[str] = None
    seed: int = 0
    format: Optional[str] = None


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any option")
    p.add_argument("--output", dest="output_path",
                   help="output file (default: <command>.<ext> in the "
                        "directory named by " + _OUTPUT_DIR_ENV + " or .)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration and exit")


@functools.cache
def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    # built once per process: parse_args keeps no state in the parsers
    parser = argparse.ArgumentParser(
        prog="cfkde",
        description="Kernel density estimation with exact transform-side "
                    "risk, finite-sample bounds, bandwidth selection, and "
                    "sample-size planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}

    p = sub.add_parser("estimate", help="evaluate the estimate on a grid")
    p.add_argument("--input", dest="input_path", help="one-column sample CSV")
    p.add_argument("--kernel", choices=BUILTIN_KERNELS)
    p.add_argument("--h", type=float)
    p.add_argument("--method", choices=("rot-normal", "ucv"),
                   help="bandwidth selector when --h is not given")
    p.add_argument("--correct", action="store_const", const=True,
                   help="repair the output into a bona fide density")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    _add_common(p)
    parsers["estimate"] = p

    p = sub.add_parser("risk", help="exact integrated risk over an h grid")
    p.add_argument("--density")
    p.add_argument("--param", action="append", default=None,
                   metavar="KEY=VALUE", help="density parameter, repeatable")
    p.add_argument("--kernel", choices=BUILTIN_KERNELS)
    p.add_argument("--h-grid", dest="h_grid",
                   help="LO:HI:COUNT (log spaced) or comma list")
    p.add_argument("--n", type=int)
    p.add_argument("--mc", type=int, metavar="REPS",
                   help="append Monte-Carlo columns")
    _add_common(p)
    parsers["risk"] = p

    p = sub.add_parser("bounds", help="tabulate bounds against exact risk")
    p.add_argument("--density")
    p.add_argument("--param", action="append", default=None,
                   metavar="KEY=VALUE")
    p.add_argument("--kernel", choices=BUILTIN_KERNELS)
    p.add_argument("--n", type=int)
    p.add_argument("--h0", type=float, help="bandwidth-recipe prefactor")
    p.add_argument("--h", type=float, help="bandwidth for fixed-h rows")
    p.add_argument("--m", type=int, help="derivative count for smooth rows")
    _add_common(p)
    parsers["bounds"] = p

    p = sub.add_parser("select", help="select a bandwidth from data")
    p.add_argument("--input", dest="input_path", help="one-column sample CSV")
    p.add_argument("--kernel", choices=BUILTIN_KERNELS)
    p.add_argument("--method",
                   choices=("rot-normal", "ucv", "mise-thm1", "maxmse-thm3"))
    p.add_argument("--h-grid", dest="h_grid")
    p.add_argument("--q-estimator", dest="q_estimator",
                   choices=("unbiased", "parametric"))
    p.add_argument("--sigma-hat", dest="sigma_hat", type=float)
    p.add_argument("--v2", type=float)
    p.add_argument("--v3", type=float)
    p.add_argument("--a", type=float)
    _add_common(p)
    parsers["select"] = p

    p = sub.add_parser("plan", help="smallest n meeting an accuracy target")
    p.add_argument("--target", choices=("mise", "max_mse", "max-mse"))
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--v2", type=float)
    p.add_argument("--v3", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--variation", type=float)
    p.add_argument("--vm", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--regime", choices=("nonsmooth", "smooth"))
    p.add_argument("--kernel", choices=BUILTIN_KERNELS)
    _add_common(p)
    parsers["plan"] = p

    return parser, parsers


def _parse_params(pairs) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError("density parameter %r is not KEY=VALUE" % (item,))
        key, _, raw = item.partition("=")
        parts = raw.split(",")
        if len(parts) > 1:
            out[key.strip()] = tuple(float(v) for v in parts)
        else:
            out[key.strip()] = float(raw)
    return out


def _check_config_value(field: dataclasses.Field, value) -> None:
    # a float field takes an int too; a bool is no number, and a float is
    # never truncated to an int
    kinds = tuple(get_origin(t) or t for t in get_args(field.type) or (field.type,))
    if float in kinds:
        kinds += (int,)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        raise ValueError("config key %s: %r is not %s" % (
            field.name, value, " or ".join(k.__name__ for k in kinds if k is not type(None))))


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win)."""
    merged = {"command": args.command}
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(fields))
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(unknown))
        loaded.pop("command", None)
        for name, value in loaded.items():
            _check_config_value(fields[name], value)
        merged.update(loaded)
    for name in fields:
        if name in ("command", "density_params"):
            continue
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    flag_params = _parse_params(getattr(args, "param", None))
    if flag_params:
        base = dict(merged.get("density_params") or {})
        base.update(flag_params)
        merged["density_params"] = base
    if merged.get("target") == "max-mse":
        merged["target"] = "max_mse"
    cfg = RunConfig(**merged)
    if cfg.format is None:
        fmt = "json" if cfg.command in ("select", "plan") else "csv"
        cfg = dataclasses.replace(cfg, format=fmt)
    return cfg


def _require(parser: argparse.ArgumentParser, cfg: RunConfig) -> None:
    # raises SystemExit(2) with usage text when a required field is missing
    need = {
        "estimate": ("input_path",),
        "risk": ("density", "h_grid", "n"),
        "bounds": ("density", "n"),
        "select": ("input_path", "method"),
        "plan": ("target", "epsilon"),
    }[cfg.command]
    for name in need:
        if getattr(cfg, name) is None:
            flag = {"input_path": "--input", "epsilon": "--eps",
                    "h_grid": "--h-grid"}.get(name, "--" + name)
            parser.error("%s requires %s" % (cfg.command, flag))
    only = {"estimate": "csv", "select": "json", "plan": "json"}.get(cfg.command)
    if only is not None and cfg.format != only:
        parser.error("%s writes %s only, not %s" % (cfg.command, only, cfg.format))
    if cfg.command == "estimate" and cfg.h is None and cfg.method is None:
        parser.error("estimate requires --h or --method")
    if cfg.h is not None and not math.isfinite(cfg.h):
        parser.error("--h must be finite")
    if cfg.h0 is not None and not math.isfinite(cfg.h0):
        parser.error("--h0 must be finite")


# ---------------------------------------------------------------------------
# shared helpers


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cfkde-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _output_path(cfg: RunConfig) -> str:
    if cfg.output_path:
        return cfg.output_path
    base = os.environ.get(_OUTPUT_DIR_ENV, ".")
    ext = "json" if cfg.format == "json" else "csv"
    return os.path.join(base, "%s.%s" % (cfg.command, ext))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr(float) also for numpy floats, whose own repr is np.float64(...)
        return repr(float(value))
    return str(value)


def _csv_text(header, rows, row_format=None) -> str:
    # row_format, such as "%r,%r\n" for rows of Python floats, formats all the
    # rows in one % operation; otherwise each cell goes through _cell
    if row_format is not None:
        return (",".join(header) + "\n"
                + (row_format * len(rows)) % tuple(itertools.chain.from_iterable(rows)))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _scan_sample(lines, path: str) -> np.ndarray:
    # the sample rules: the first CSV column; blank cells are skipped, and a
    # non-numeric cell is tolerated only on line 1, as a header
    cells = [line.split(",", 1)[0].strip() for line in lines]
    if cells and not _is_number(cells[0]):
        cells[0] = ""
    try:
        return np.array([c for c in cells if c], dtype=float)
    except ValueError:
        i = next(i for i, c in enumerate(cells) if c and not _is_number(c))
        raise ValueError("non-numeric value %r on line %d of %s"
                         % (cells[i], i + 1, path)) from None


def _read_sample(path: str):
    # numpy's C parser reads the first column.  It rounds as float() does and
    # refuses every file in which _scan_sample skips or rejects a cell other
    # than a header on line 1 (a blank first cell, a line of only whitespace,
    # Python-only syntax such as 1_000, a bad cell); then, and only then, the
    # scan reads the file again.
    with open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        if not fh.seekable():
            # a pipe: the scan may have to read it again
            fh = io.StringIO(fh.read())
        header = not _is_number(fh.readline().split(",", 1)[0].strip())
        fh.seek(0)
        by_name = size > _READ_BY_NAME and not path.endswith(_COMPRESSED)
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, as by the scan
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt(path if by_name else fh, skiprows=int(header),
                                    delimiter=",", usecols=0, comments=None, ndmin=1)
        except ValueError:
            fh.seek(0)
            values = _scan_sample(fh, path)
    if not values.size:
        raise ValueError("no data in %s" % path)
    return as_sample(values)


def _parse_grid(spec: str) -> np.ndarray:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must be LO:HI:COUNT or a comma list")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not (0.0 < lo <= hi < math.inf and count >= 1):
            raise ValueError("grid spec must satisfy 0 < LO <= HI < inf, COUNT >= 1")
        return np.geomspace(lo, hi, count)
    grid = np.array([float(v) for v in spec.split(",")])
    if grid.size == 0 or not np.all((grid > 0.0) & np.isfinite(grid)):
        raise ValueError("grid entries must be positive and finite")
    return grid


def _density_from(cfg: RunConfig) -> DensityModel:
    return make_density(cfg.density, **(cfg.density_params or {}))


def _write_table(cfg: RunConfig, header, rows) -> int:
    out = _output_path(cfg)
    if cfg.format == "json":
        _write_atomic(out, _json_text([dict(zip(header, r)) for r in rows]))
    else:
        _write_atomic(out, _csv_text(header, rows))
    print("wrote %s" % out)
    return 0


def _selector_to_dict(res: SelectorResult) -> Dict[str, object]:
    curve = None
    if res.criterion_curve is not None:
        curve = [[h, q] for h, q in res.criterion_curve]
    return {"method": res.method, "h": res.h, "criterion_curve": curve,
            "metadata": dict(res.metadata)}


def _select_bandwidth(cfg: RunConfig, sample, kernel: KernelModel) -> SelectorResult:
    grid = _parse_grid(cfg.h_grid) if cfg.h_grid else None
    if cfg.method == "rot-normal":
        return rule_of_thumb_normal(sample.std(), sample.n)
    if cfg.method == "ucv":
        return cv_bandwidth(sample, kernel, h_grid=grid,
                            q_estimator=cfg.q_estimator,
                            sigma_hat=cfg.sigma_hat)
    if cfg.method == "mise-thm1":
        return bound_rule("mise_thm1", cfg.v2, kernel, sample.n)
    if cfg.method == "maxmse-thm3":
        return bound_rule("maxmse_thm3", (cfg.v3, cfg.a), kernel, sample.n)
    raise ValueError("unknown method: %r" % (cfg.method,))


# ---------------------------------------------------------------------------
# commands


def cmd_estimate(cfg: RunConfig) -> int:
    sample = _read_sample(cfg.input_path)
    kernel = make_builtin(cfg.kernel)
    if cfg.h is not None:
        h = cfg.h
        method = "fixed"
    else:
        sel = _select_bandwidth(cfg, sample, kernel)
        h = sel.h
        method = sel.method
    est = estimate_on_grid(sample, kernel, h, n_points=cfg.grid_size,
                           correct=cfg.correct)
    out = _output_path(cfg)
    rows = np.column_stack((est.xs, est.ys)).tolist()
    _write_atomic(out, _csv_text(("x", "y"), rows, "%r,%r\n"))
    sidecar = os.path.splitext(out)[0] + ".json"
    meta = {
        "command": "estimate", "input_path": cfg.input_path,
        "n": sample.n, "kernel": est.kernel_name, "h": est.h,
        "bandwidth_method": method, "corrected": est.corrected,
        "xi": est.xi, "mass": est.mass, "grid_size": int(est.xs.size),
    }
    meta.update(est.metadata)
    _write_atomic(sidecar, _json_text(meta))
    print("wrote %s and %s" % (out, sidecar))
    return 0


def cmd_risk(cfg: RunConfig) -> int:
    density = _density_from(cfg)
    kernel = make_builtin(cfg.kernel)
    grid = _parse_grid(cfg.h_grid)
    header = ["h", "exact_mise", "quad_error"]
    if cfg.mc is not None:
        header += ["mc_mise", "mc_se"]
    header += ["degraded", "cutoff", "nodes"]
    rows = []
    for h in grid:
        rep = exact_mise(density, kernel, float(h), cfg.n)
        row = [float(h), rep.value, rep.quad_error]
        if cfg.mc is not None:
            mean, se = mc_mise(density, kernel, float(h), cfg.n,
                               reps=cfg.mc, seed=cfg.seed)
            row += [mean, se]
        row += [bool(rep.degraded), float(rep.cutoff), int(rep.nodes)]
        rows.append(row)
    return _write_table(cfg, header, rows)


def _bound_table(density: DensityModel, kernel: KernelModel,
                 cfg: RunConfig):
    h = cfg.h if cfg.h is not None else 0.5
    n = cfg.n
    lo, hi = density.support_hint
    xs = np.linspace(lo, hi, 9)
    rows = []
    for res, k_used in bounds.bound_table(density, kernel, n, h, cfg.h0, cfg.m):
        exact = None
        if res.bound is not None:
            # a report that raises or is degraded leaves exact and ratio blank
            try:
                if res.kind == "max_mse":
                    rep = exact_mse(density, k_used, res.h_used, n, xs)
                else:
                    rep = exact_mise(density, k_used, res.h_used, n)
                if not np.any(rep.degraded):
                    exact = float(np.max(rep.value))
            except ValueError:
                pass
        ratio = None
        if res.bound is not None and exact is not None and exact > 0.0:
            ratio = res.bound / exact
        rows.append([res.theorem_id, res.h_used, res.bound, exact, ratio,
                     "true" if res.applicable else "false"])
    return rows


def cmd_bounds(cfg: RunConfig) -> int:
    density = _density_from(cfg)
    kernel = make_builtin(cfg.kernel)
    if kernel.is_sinc:
        raise ValueError("bounds needs a conventional kernel; the "
                         "spectrum-cutoff rows are always included")
    rows = _bound_table(density, kernel, cfg)
    header = ["theorem_id", "h_n", "bound", "exact", "ratio", "applicable"]
    return _write_table(cfg, header, rows)


def cmd_select(cfg: RunConfig) -> int:
    sample = _read_sample(cfg.input_path)
    kernel = make_builtin(cfg.kernel)
    res = _select_bandwidth(cfg, sample, kernel)
    out = _output_path(cfg)
    _write_atomic(out, _json_text(_selector_to_dict(res)))
    print("wrote %s" % out)
    print("h = %r" % res.h)
    return 0


def cmd_plan(cfg: RunConfig) -> int:
    req = PlanRequest(target=cfg.target, epsilon=cfg.epsilon, v2=cfg.v2,
                      v3=cfg.v3, a=cfg.a, variation=cfg.variation,
                      vm=cfg.vm, m=cfg.m if cfg.regime == "smooth" else None,
                      regime=cfg.regime)
    kernel = make_builtin(cfg.kernel) if cfg.regime is None else None
    n0 = plan_sample_size(req, kernel)
    c, r = plan_bound_constant(req, kernel)
    certified = c * n0 ** -r
    print("n0 = %d" % n0)
    print("certified_bound = %r <= epsilon = %r" % (certified, cfg.epsilon))
    if cfg.output_path:
        payload = {"n0": n0, "certified_bound": certified,
                   "epsilon": cfg.epsilon, "constant": c, "rate": r,
                   "target": cfg.target, "regime": cfg.regime}
        _write_atomic(cfg.output_path, _json_text(payload))
        print("wrote %s" % cfg.output_path)
    return 0


_DISPATCH = {
    "estimate": cmd_estimate,
    "risk": cmd_risk,
    "bounds": cmd_bounds,
    "select": cmd_select,
    "plan": cmd_plan,
}


def main(argv=None) -> int:
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        _require(parsers[cfg.command], cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        # a JSONDecodeError is a ValueError, a missing file an OSError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.dump_config:
        print(_json_text(dataclasses.asdict(cfg)), end="")
        return 0
    try:
        return _DISPATCH[cfg.command](cfg)
    except CorrectionInfeasibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
