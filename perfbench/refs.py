"""Reference values computed without the cfkde package.

Everything here is written from the definitions with numpy and scipy only,
so an output of `cfkde` can be checked against a number that does not share
its code path:

* exact MISE of the built-in densities and kernels, split as
  MISE(h, n) = B(h) + (R(K)/h - C(h)) / n with B = int (K_h*p - p)^2 and
  C = int (K_h*p)^2.  Closed forms are used for normal and mixture targets
  with the gaussian kernel and for every target with the sinc kernel; the
  band-limited Fejer target uses its finite transform-side integral; all
  other cells integrate in x space with Gauss-Legendre panels split at every
  kink of the target and of the smoothed curve;
* the unbiased cross-validation curve, by direct pairwise sums;
* the normal-model cross-validation curve;
* the kernel estimate at a point, by direct summation;
* the plan constants of the conventional and spectrum-cutoff routes.
"""

import math

import numpy as np
from scipy.special import erf, erfc, erfcx, ndtr, sici

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)

# Target densities of the risk study, with the parameters passed to the CLI.
MIXTURE = dict(weights=(0.5, 0.5), means=(-1.5, 1.5), sigmas=(0.5, 0.5))
DENSITIES = ("normal", "mixture", "uniform", "laplace", "fejer")
KERNELS = ("gaussian", "epanechnikov", "uniform", "sinc")

ROUGHNESS = {
    "gaussian": 1.0 / (2.0 * SQRT_PI),
    "epanechnikov": 0.6,
    "uniform": 0.5,
    "sinc": 1.0 / math.pi,
}

# Bandwidth lattice of the risk study: ten points per decade over [0.01, 10].
H_LATTICE = tuple(10.0 ** (k / 10.0) for k in range(-20, 11))

_GL = {}


def _gauss_legendre(m):
    if m not in _GL:
        _GL[m] = np.polynomial.legendre.leggauss(m)
    return _GL[m]


# ---------------------------------------------------------------------------
# kernels, written from their definitions


def kernel_pdf(name, u):
    u = np.asarray(u, dtype=float)
    if name == "gaussian":
        return np.exp(-0.5 * u * u) / SQRT_2PI
    if name == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if name == "uniform":
        return np.where(np.abs(u) <= 1.0, 0.5, 0.0)
    if name == "sinc":
        return np.sinc(u / math.pi) / math.pi
    raise ValueError(name)


def kernel_cdf(name, v):
    v = np.asarray(v, dtype=float)
    if name == "gaussian":
        return ndtr(v)
    w = np.clip(v, -1.0, 1.0)
    if name == "epanechnikov":
        return 0.5 + 0.75 * (w - w ** 3 / 3.0)
    if name == "uniform":
        return 0.5 * (w + 1.0)
    raise ValueError(name)


def kernel_ft(name, u):
    """Fourier transform phi(u) and 1 - phi(u), both without cancellation."""
    u = np.abs(np.asarray(u, dtype=float))
    small = u < 0.05
    us = np.where(small, 1.0, u)
    u2 = u * u
    if name == "gaussian":
        return np.exp(-0.5 * u2), -np.expm1(-0.5 * u2)
    if name == "epanechnikov":
        big = 3.0 * (np.sin(us) - us * np.cos(us)) / us ** 3
        om_series = u2 / 10.0 - u2 * u2 / 280.0 + u2 ** 3 / 15120.0
    elif name == "uniform":
        big = np.sin(us) / us
        om_series = u2 / 6.0 - u2 * u2 / 120.0 + u2 ** 3 / 5040.0
    else:
        raise ValueError(name)
    phi = np.where(small, 1.0 - om_series, big)
    return phi, np.where(small, om_series, 1.0 - big)


# ---------------------------------------------------------------------------
# target densities


def density_pdf(name, x):
    x = np.asarray(x, dtype=float)
    if name == "normal":
        return np.exp(-0.5 * x * x) / SQRT_2PI
    if name == "mixture":
        out = np.zeros_like(x)
        for w, m, s in zip(MIXTURE["weights"], MIXTURE["means"], MIXTURE["sigmas"]):
            out += w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * SQRT_2PI)
        return out
    if name == "uniform":
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
    if name == "laplace":
        return 0.5 * np.exp(-np.abs(x))
    raise ValueError(name)


_SUPPORT = {"normal": (-13.0, 13.0), "mixture": (-9.0, 9.0),
            "uniform": (0.0, 1.0), "laplace": (-46.0, 46.0)}
_KINKS = {"normal": (), "mixture": (), "uniform": (0.0, 1.0), "laplace": (0.0,)}
_SCALE = {"normal": 1.0, "mixture": 0.5, "uniform": 1.0, "laplace": 1.0}


def _sq_head(name, c):
    """int_{|t| <= c} |f(t)|^2 dt and its total over the line, closed form."""
    if name == "normal":
        return SQRT_PI * math.erf(c), SQRT_PI
    if name == "uniform":
        if c == 0.0:
            return 0.0, 2.0 * math.pi
        si, _ = sici(c)
        a = 0.5 * c
        return 4.0 * (float(si) - math.sin(a) ** 2 / a), 2.0 * math.pi
    if name == "laplace":
        return math.atan(c) + c / (1.0 + c * c), 0.5 * math.pi
    if name == "fejer":
        cc = min(c, 1.0)
        return 2.0 * (1.0 - (1.0 - cc) ** 3) / 3.0, 2.0 / 3.0
    if name == "mixture":
        # |f|^2 = sum_ij w_i w_j cos((m_i - m_j) t) exp(-(s_i^2 + s_j^2) t^2 / 2)
        head = 0.0
        total = 0.0
        ws, ms, ss = MIXTURE["weights"], MIXTURE["means"], MIXTURE["sigmas"]
        for wi, mi, si in zip(ws, ms, ss):
            for wj, mj, sj in zip(ws, ms, ss):
                s2 = si * si + sj * sj
                d = mi - mj
                total += wi * wj * math.sqrt(2.0 * math.pi / s2) * math.exp(-0.5 * d * d / s2)
                # int_{-c}^{c} cos(d t) exp(-s2 t^2 / 2) dt via the complex erf
                r = math.sqrt(0.5 * s2)
                z = r * c - 1j * d / (2.0 * r)
                val = SQRT_PI / r * math.exp(-d * d / (4.0 * r * r)) * complex(erf(z)).real
                head += wi * wj * val
        return head, total
    raise ValueError(name)


def _gaussian_products(name, h):
    """Closed-form B and C for normal and mixture targets, gaussian kernel."""
    if name == "normal":
        comps = [(1.0, 0.0, 1.0)]
    else:
        comps = list(zip(MIXTURE["weights"], MIXTURE["means"], MIXTURE["sigmas"]))

    def cross(extra_a, extra_b):
        tot = 0.0
        for wi, mi, si in comps:
            for wj, mj, sj in comps:
                v = si * si + sj * sj + extra_a + extra_b
                tot += wi * wj * math.exp(-0.5 * (mi - mj) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
        return tot

    h2 = h * h
    pp, gp, gg = cross(0.0, 0.0), cross(h2, 0.0), cross(h2, h2)
    return pp - 2.0 * gp + gg, gg


def _panels(breaks, width):
    """Gauss-Legendre nodes and weights over consecutive breakpoints."""
    nodes, weights = _gauss_legendre(20)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        count = max(1, int(math.ceil((b - a) / width)))
        edges = np.linspace(a, b, count + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        xs.append((mid[:, None] + half[:, None] * nodes[None, :]).ravel())
        ws.append((half[:, None] * weights[None, :]).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def _smoothed(name, kernel, h, x, inner):
    """(K_h * p)(x): closed form where p or K allows it, else quadrature in u."""
    if name == "uniform":
        return kernel_cdf(kernel, x / h) - kernel_cdf(kernel, (x - 1.0) / h)
    if kernel == "gaussian":
        # laplace target: 1/4 e^{h^2/2} [e^{-x} erfc(z1) + e^{x} erfc(z2)],
        # z1,2 = (h -+ x/h)/sqrt(2), written through erfcx to avoid overflow
        def term(y):
            z = (h - y / h) / math.sqrt(2.0)
            with np.errstate(over="ignore"):
                direct = np.exp(0.5 * h * h - y) * erfc(z)
            return np.where(z >= 0.0, erfcx(np.maximum(z, 0.0)) * np.exp(-0.5 * (y / h) ** 2),
                            direct)
        return 0.25 * (term(x) + term(-x))
    nodes, weights = _gauss_legendre(inner)
    # compact kernel on [-1, 1]; split the u range where x - h u meets a kink
    cut = np.clip(x / h, -1.0, 1.0) if _KINKS[name] else np.ones_like(x)
    per_side = max(2, int(math.ceil(4.0 * h / _SCALE[name])))
    total = np.zeros_like(x)
    for lo, hi in ((-np.ones_like(x), cut), (cut, np.ones_like(x))):
        half = 0.5 * (hi - lo) / per_side
        for p in range(per_side):
            mid = lo + (2 * p + 1) * half
            u = mid[:, None] + half[:, None] * nodes[None, :]
            vals = kernel_pdf(kernel, u) * density_pdf(name, x[:, None] - h * u)
            total += (vals * weights[None, :]).sum(axis=1) * half
    return total


def _x_space_parts(name, kernel, h, width, inner):
    reach = 9.0 * h if kernel == "gaussian" else h
    lo, hi = _SUPPORT[name]
    breaks = {lo - reach, hi + reach}
    for k in _KINKS[name] + ((lo, hi) if name == "uniform" else ()):
        breaks.add(k)
        for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            for s in (-1.0, 1.0):
                b = k + s * f * h
                if lo - reach < b < hi + reach:
                    breaks.add(b)
    xs, ws = _panels(sorted(breaks), width)
    out = np.empty(xs.size)
    chunk = 4096
    for i in range(0, xs.size, chunk):
        out[i : i + chunk] = _smoothed(name, kernel, h, xs[i : i + chunk], inner)
    p = density_pdf(name, xs)
    return float(np.dot(ws, (out - p) ** 2)), float(np.dot(ws, out * out))


def _fejer_parts(kernel, h, nodes):
    # |f|^2 = (1 - |t|)^2 on [-1, 1]; Parseval over a finite interval
    t, w = _panels([0.0, 1.0], 1.0 / nodes)
    mod2 = (1.0 - t) ** 2
    phi, om = kernel_ft(kernel, h * t)
    b = float(np.dot(w, mod2 * om * om)) / math.pi
    c = float(np.dot(w, mod2 * phi * phi)) / math.pi
    return b, c


def risk_parts(name, kernel, h):
    """(B, C, error) with MISE(h, n) = B + (R(K)/h - C)/n for a target and kernel."""
    if kernel == "sinc":
        head, total = _sq_head(name, 1.0 / h)
        b = (total - head) / (2.0 * math.pi)
        c = head / (2.0 * math.pi)
        return b, c, 1e-14 * max(1.0, total)
    if kernel == "gaussian" and name in ("normal", "mixture"):
        b, c = _gaussian_products(name, h)
        return b, c, 1e-14
    if name == "fejer":
        b1, c1 = _fejer_parts(kernel, h, 8)
        b2, c2 = _fejer_parts(kernel, h, 32)
    else:
        base = min(0.1 * _SCALE[name], max(h, 0.02))
        b1, c1 = _x_space_parts(name, kernel, h, base, 24)
        b2, c2 = _x_space_parts(name, kernel, h, 0.5 * base, 40)
    err = abs(b1 - b2) + abs(c1 - c2) + 1e-14
    return b2, c2, err


def mise(entry, kernel, h, n):
    """Reference MISE and its error from a stored (B, C, error) entry."""
    b, c, err = entry
    return b + (ROUGHNESS[kernel] / h - c) / n, err * (1.0 + 1.0 / n)


# ---------------------------------------------------------------------------
# data-side references


def _kernel_selfconv(name, u):
    u = np.abs(np.asarray(u, dtype=float))
    if name == "gaussian":
        return np.exp(-0.25 * u * u) / (2.0 * SQRT_PI)
    if name == "epanechnikov":
        us = np.minimum(u, 2.0)
        return 3.0 * (2.0 - us) ** 3 * (us * us + 6.0 * us + 4.0) / 160.0
    if name == "sinc":
        # the transform is an indicator, so the kernel is its own square
        return kernel_pdf("sinc", u)
    raise ValueError(name)


def ucv_curve(values, kernel, grid):
    """UCV(h) = R/(n h) + 2/(n(n-1)h) sum_{j<k} [(K*K)(d/h) - 2 K(d/h)]."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    grid = np.asarray(grid, dtype=float)
    acc = np.zeros(grid.size)
    block = max(1, 100_000 // n)
    for b in range(0, n - 1, block):
        rows = np.arange(b, min(b + block, n - 1))
        d = x[None, :] - x[rows, None]
        d = d[np.arange(n)[None, :] > rows[:, None]]
        if kernel == "epanechnikov":
            # both terms vanish for |u| > 2: only close pairs count
            d = np.sort(d)
        for j, h in enumerate(grid):
            near = d[: np.searchsorted(d, 2.0 * h, side="right")] if kernel == "epanechnikov" else d
            u = near / h
            if kernel == "sinc":
                # the sinc kernel is its own self-convolution
                acc[j] -= float(np.sum(kernel_pdf(kernel, u)))
            else:
                acc[j] += float(np.sum(_kernel_selfconv(kernel, u) - 2.0 * kernel_pdf(kernel, u)))
    return ROUGHNESS[kernel] / (n * grid) + 2.0 * acc / (n * (n - 1.0) * grid)


def parametric_curve(sigma, kernel, grid, n):
    """Normal-model criterion: int (K_h*N(0, s^2) - N(0, s^2))^2 + R/(n h)."""
    out = []
    for h in grid:
        if kernel == "gaussian":
            b, _ = _gaussian_products("normal", h / sigma)
            b /= sigma
        elif kernel == "sinc":
            head, total = _sq_head("normal", sigma / h)
            b = (total - head) / (2.0 * math.pi * sigma)
        else:
            t, w = _panels([0.0, 40.0 / sigma], 0.05 / sigma)
            _, om = kernel_ft(kernel, h * t)
            b = float(np.dot(w, np.exp(-(sigma * t) ** 2) * om * om)) / math.pi
        out.append(b + ROUGHNESS[kernel] / (n * h))
    return np.array(out)


def kde_direct(values, kernel, h, xs):
    """f_hat(x) = (n h)^(-1) sum_j K((x - X_j)/h), summed directly."""
    values = np.asarray(values, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.array([kernel_pdf(kernel, (x - values) / h).sum() for x in xs]) / (values.size * h)


def rot_normal_h(values):
    """(4 / (3 n))^(1/5) times the sample standard deviation."""
    values = np.asarray(values, dtype=float)
    return (4.0 / (3.0 * values.size)) ** 0.2 * float(np.std(values, ddof=1))


def plan_constant(route, params, kernel=None):
    """(C, r) of the minimized bound C n^(-r) used by `cfkde plan`."""
    if route == "mise":
        mu2, rough = {"gaussian": (1.0, ROUGHNESS["gaussian"]),
                      "epanechnikov": (0.2, 0.6)}[kernel]
        c1 = 0.3 / math.pi * mu2 ** 2 * params["v2"] ** (5.0 / 3.0)
        h = (rough / (4.0 * c1)) ** 0.2
        return c1 * h ** 4 + rough / h, 0.8
    if route == "nonsmooth":
        return 2.0 * params["variation"] / math.pi, 0.5
    if route == "smooth":
        m, vm = float(params["m"]), params["vm"]
        c = ((4.0 * (m + 1.0)) ** (1.0 / (2.0 * m + 1.0))
             * ((2.0 * m + 1.0) / m) ** (2.0 * m / (2.0 * m + 1.0))
             * vm ** (1.0 / (m + 1.0))) / (2.0 * math.pi)
        return c, 2.0 * m / (2.0 * m + 1.0)
    raise ValueError(route)
