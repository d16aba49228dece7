"""Generalized spectral ODE on (0,1): seeds, fundamental systems, eigenvalues.

The eigenvalue problem of the linearized similarity-coordinate operator
reduces to the second-order ODE

    (1 - rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0(lam) u = 0

with c0 = lam(lam+d-1) + d(d-2)/4 for the free variant and
c0 = lam(lam+d-1) - d for the perturbed one (the potential shifts the
zero-order coefficient by (2d+d^2)/4).  Both endpoints are regular
singular points: Frobenius indices {0, (2-d)/2} at rho=0 and
{0, 1/2-lam} at rho=1.  `integrate` evaluates the origin-regular and the
analytic-at-one branches on point sets, batched over lam; it is the one
place where the Frobenius series bridges the seed gap next to each
endpoint.  Eigenvalues are located as zeros (in lam) of the Wronskian of
the two branches, counted by the argument principle on rectangles and
polished by Newton.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _rk45
from .errors import (ContourTooCloseError, DomainError, IndexCollisionError,
                     ParamError, QuadratureError)
from .specfun import c3_connection

ORIGIN_START = 1e-3      # integration starts here (series below)
ONE_START = 1.0 - 1e-3
SEED_ORDER = 8
RHO_MID = 0.5            # Wronskian matching point for the indicator
EDGE_DENSITY = 10.0      # initial samples per unit length of a scan edge
EDGE_MAX_DEPTH = 12      # bisection rounds before an edge counts as unresolved


def zero_order_coeff(d: int, lam: complex, variant: str) -> complex:
    lam = complex(lam)
    base = lam * (lam + d - 1.0)
    if variant == "free":
        return base + d * (d - 2.0) / 4.0
    if variant == "perturbed":
        return base - d
    raise ParamError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class SpectralODE:
    d: int
    lam: complex
    variant: str  # "free" | "perturbed"

    def __post_init__(self):
        if self.d < 3 or int(self.d) != self.d:
            raise DomainError("dimension must be an integer >= 3")
        zero_order_coeff(self.d, self.lam, self.variant)  # validates variant

    @property
    def c0(self) -> complex:
        return zero_order_coeff(self.d, self.lam, self.variant)

    def residual(self, rho, u, up, upp):
        """(1-rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0 u."""
        d, lam = self.d, complex(self.lam)
        b = (d - 1.0) / rho - (2.0 * lam + d) * rho
        return (1.0 - rho**2) * upp + b * up - self.c0 * u


def _batch_rhs(d: int, lam_arr, variant: str):
    lam_arr = np.asarray(lam_arr, dtype=complex)
    c0 = np.array([zero_order_coeff(d, l, variant) for l in lam_arr])
    two_ld = 2.0 * lam_arr + d

    def f(rho, y):
        u, up = y[..., 0], y[..., 1]
        b = (d - 1.0) / rho - two_ld * rho
        out = np.empty_like(y)
        out[..., 0] = up
        out[..., 1] = (-b * up + c0 * u) / (1.0 - rho * rho)
        return out

    return f


# ---------------------------------------------------------------------------
# Frobenius seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusSeed:
    """Truncated Frobenius series at a singular endpoint.

    origin: u(rho) = sum_k a_k rho^{2k} (index 0, the H^1 branch);
    one:    u(rho) = x^sigma sum_k b_k x^k with x = 1 - rho and
            sigma = 0 (analytic) or 1/2 - lam (singular).
    """

    endpoint: str                   # "origin" | "one"
    index: complex
    coefficients: tuple = field(repr=False)

    def eval(self, rho):
        """(u, du/drho) at rho (scalar or array)."""
        u, up, _ = self.eval2(rho)
        return u, up

    def eval2(self, rho):
        """(u, u', u'') at rho, all from the truncated series."""
        rho = np.asarray(rho, dtype=float)
        b = np.asarray(self.coefficients)
        if self.endpoint == "origin":
            u = np.zeros(rho.shape, dtype=complex)
            up = np.zeros(rho.shape, dtype=complex)
            upp = np.zeros(rho.shape, dtype=complex)
            r2 = rho * rho
            for k in range(len(b) - 1, 0, -1):
                u = u * r2 + b[k]
                up = up * r2 + 2 * k * b[k]
                upp = upp * r2 + 2 * k * (2 * k - 1) * b[k]
            u = u * r2 + b[0]
            return u, up * rho, upp
        x = 1.0 - rho
        s = np.zeros(rho.shape, dtype=complex)
        sp = np.zeros(rho.shape, dtype=complex)
        spp = np.zeros(rho.shape, dtype=complex)
        for k in range(len(b) - 1, 1, -1):
            s = s * x + b[k]
            sp = sp * x + k * b[k]
            spp = spp * x + k * (k - 1) * b[k]
        if len(b) > 1:
            s = s * x + b[1]
            sp = sp * x + b[1]
        s = s * x + b[0]
        sig = complex(self.index)
        if sig == 0:
            y, yp, ypp = s, sp, spp
        else:
            xs = np.exp(sig * np.log(x))
            y = xs * s
            yp = xs * (sp + sig * s / x)
            ypp = xs * (spp + 2.0 * sig * sp / x + sig * (sig - 1.0) * s / x**2)
        return y, -yp, ypp


def seed_origin(ode: SpectralODE) -> FrobeniusSeed:
    """Index-0 even series at rho=0: a_{k+1}/a_k from the ODE recurrence."""
    d, lam, c0 = ode.d, complex(ode.lam), ode.c0
    a = [1.0 + 0.0j]
    k = 0
    while k < SEED_ORDER or (abs(a[-1]) * ORIGIN_START ** (2 * k) > 1e-17 and k < 80):
        num = 4.0 * k * k + 2.0 * k * (2.0 * lam + d - 1.0) + c0
        a.append(a[-1] * num / ((2.0 * k + 2.0) * (2.0 * k + d)))
        k += 1
    return FrobeniusSeed("origin", 0.0, tuple(a))


def seed_one(ode: SpectralODE, branch: str = "analytic") -> FrobeniusSeed:
    """Frobenius series at rho=1; indices {0, 1/2-lam}.

    analytic: Taylor in x = 1-rho with leading coefficient 1;
    singular: x^{1/2-lam} (series), unavailable for lam near 1/2.

    The recurrence comes from multiplying the ODE by (1-x) to clear the
    1/(1-x) coefficient: with y(x) = u(1-x),
    P y'' + Q y' + R y = 0,  P = 2x - 3x^2 + x^3,
    Q = (2 lam + 1) - 2(2 lam + d) x + (2 lam + d) x^2,  R = -c0 + c0 x.
    """
    d, lam, c0 = ode.d, complex(ode.lam), ode.c0
    if branch == "analytic":
        sig = 0.0 + 0.0j
    elif branch == "singular":
        sig = 0.5 - lam
        if abs(sig) < 1e-8:
            raise IndexCollisionError("Frobenius indices collide at lam=1/2")
    else:
        raise ParamError(f"unknown branch {branch!r}")
    two_ld = 2.0 * lam + d
    x0 = 1.0 - ONE_START
    coeffs = [1.0 + 0.0j]
    m = 0
    while m < SEED_ORDER or (abs(coeffs[-1]) * x0**m > 1e-17 and m < 80):
        ms = m + sig
        c_m = (ms + 1.0) * (2.0 * ms + 2.0 * lam + 1.0)
        if abs(c_m) < 1e-12:
            raise IndexCollisionError(
                f"recurrence degenerate at order {m + 1} for lam={lam}"
            )
        a_m = -3.0 * ms * (ms - 1.0) - 2.0 * two_ld * ms - c0
        b_m = (ms - 1.0) * (ms - 2.0) + two_ld * (ms - 1.0) + c0
        prev2 = coeffs[m - 1] if m >= 1 else 0.0
        coeffs.append(-(a_m * coeffs[m] + b_m * prev2) / c_m)
        m += 1
    return FrobeniusSeed("one", sig, tuple(coeffs))


# ---------------------------------------------------------------------------
# fundamental solutions by adaptive integration
# ---------------------------------------------------------------------------


def _shoot_start(d: int, lam_arr, variant: str, endpoint: str):
    """Frobenius start of a shoot batched over lam from one endpoint.

    Returns (seeds, start, y0, rhs, h0): the analytic-branch seeds, the
    start point ORIGIN_START or ONE_START, the seed data (u, u') there per
    lam, the batched RHS, and an initial step resolving the fastest
    oscillation e^{a(lam) phi} of the batch.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    odes = [SpectralODE(d, complex(lam), variant) for lam in lam_arr]
    seeds = ([seed_origin(ode) for ode in odes] if endpoint == "origin"
             else [seed_one(ode, "analytic") for ode in odes])
    start = ORIGIN_START if endpoint == "origin" else ONE_START
    y0 = np.array([seed.eval(start) for seed in seeds], dtype=complex)
    h0 = 0.5 / (20.0 + float(np.max(np.abs(1j * (0.5 - lam_arr)))))
    return seeds, start, y0, _batch_rhs(d, lam_arr, variant), h0


def integrate(d: int, lam_arr, variant: str, endpoint: str, pts, rtol: float):
    """(u, u') of the solution seeded at `endpoint` on ascending pts in
    (0, 1), batched over lam; arrays (n_lam, n_pts).

    The origin-seeded solution is the regular one, the one-seeded solution
    the analytic one, both with unit leading seed coefficient.  Points
    inside the seed gap [0, ORIGIN_START] or [ONE_START, 1] are evaluated
    from the Frobenius series, the rest by landing RK45 checkpoints on
    them (integrating toward 0 for the one-seeded solution).
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    pts = np.asarray(pts, dtype=float)
    if len(pts) and (pts[0] <= 0.0 or pts[-1] >= 1.0 or np.any(np.diff(pts) < 0.0)):
        raise DomainError("points must be ascending in (0, 1)")
    n_lam, n_pts = len(lam_arr), len(pts)
    u = np.empty((n_lam, n_pts), dtype=complex)
    up = np.empty((n_lam, n_pts), dtype=complex)

    seeds, start, y0, f, h0 = _shoot_start(d, lam_arr, variant, endpoint)
    if endpoint == "origin":
        gap = pts <= start
        cps = pts[~gap]
    else:
        gap = pts >= start
        cps = pts[~gap][::-1]  # descending toward 0
    for i, seed in enumerate(seeds):
        if np.any(gap):
            u[i, gap], up[i, gap] = seed.eval(pts[gap])
    if len(cps):
        _, cp_vals, _ = _rk45.solve(
            f, start, float(cps[-1]), y0, rtol=rtol, atol=1e-300,
            checkpoints=cps, h0=h0,
        )
        if not np.all(np.isfinite(cp_vals)):
            raise QuadratureError("fundamental solution overflowed on nodes")
        if endpoint == "origin":
            u[:, ~gap] = cp_vals[:, :, 0].T
            up[:, ~gap] = cp_vals[:, :, 1].T
        else:
            u[:, ~gap] = cp_vals[::-1, :, 0].T
            up[:, ~gap] = cp_vals[::-1, :, 1].T
    return u, up


# ---------------------------------------------------------------------------
# eigenvalue indicator and half-plane scan
# ---------------------------------------------------------------------------


def _shoot_to_mid(d: int, lam_arr, variant: str, rtol: float):
    """(mu, ya, yb): the indicator and the (u, u') of the origin- and
    one-seeded solutions at RHO_MID, batched over lam."""
    mid = []
    for endpoint in ("origin", "one"):
        _, start, y0, f, h0 = _shoot_start(d, lam_arr, variant, endpoint)
        mid.append(_rk45.solve(f, start, RHO_MID, y0, rtol=rtol,
                               atol=1e-300, h0=h0)[0])
    ya, yb = mid
    return ya[:, 0] * yb[:, 1] - ya[:, 1] * yb[:, 0], ya, yb


def _indicator_batch(d: int, lam_arr, variant: str, rtol: float = 1e-9):
    """mu(lam) = W(u_origin, u_analytic-at-1)(1/2) for an array of lam.

    Solutions are normalized to unit seed data, so mu's scale is O(|u|^2).
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    if len(lam_arr) == 0:
        return np.empty(0, dtype=complex)
    return _shoot_to_mid(d, lam_arr, variant, rtol)[0]


def eigen_indicator(d: int, lam, variant: str, rtol: float = 1e-10):
    """(mu, scale): scalar indicator and its natural magnitude scale.

    Zeros of mu in lam are the eigenvalues of the variant's operator.
    Reliable for Re(lam) >= -1/2 and |lam - 1/2| >= 1e-6.
    """
    mu, ya, yb = _shoot_to_mid(d, [complex(lam)], variant, rtol)
    scale = (abs(ya[0, 0]) + abs(ya[0, 1])) * (abs(yb[0, 0]) + abs(yb[0, 1]))
    return complex(mu[0]), float(scale)


class _CachedIndicator:
    """Batch evaluator with a value cache keyed by the complex argument."""

    def __init__(self, fn_batch):
        self.fn_batch = fn_batch
        self.cache = {}

    def __call__(self, lams):
        lams = np.asarray(lams, dtype=complex)
        missing = [l for l in lams if l not in self.cache]
        if missing:
            # group by |Im| octave so batch step sizes stay comparable
            missing = sorted(set(missing), key=lambda z: abs(z.imag))
            i = 0
            while i < len(missing):
                w0 = abs(missing[i].imag)
                j = i + 1
                while j < len(missing) and abs(missing[j].imag) <= max(2.0 * w0, w0 + 4.0):
                    j += 1
                chunk = missing[i:j]
                vals = self.fn_batch(np.asarray(chunk, dtype=complex))
                for l, v in zip(chunk, vals):
                    self.cache[l] = complex(v)
                i = j
        return np.array([self.cache[l] for l in lams], dtype=complex)


def _trace_edges(ev, edges):
    """Sample f along each edge (z0, z1, n0) densely enough that arg
    increments stay below ~0.8.

    The edges refine in lockstep: the initial samples of all edges are one
    ev call, and each round evaluates the midpoints of every failing
    interval of every edge in one more.  Returns [(pts, vals)] per edge.
    """
    pts = [list(z0 + (z1 - z0) * np.linspace(0.0, 1.0, max(n0, 3)))
           for z0, z1, n0 in edges]
    flat = ev([p for ps in pts for p in ps])
    vals = [list(v) for v in
            np.split(flat, np.cumsum([len(ps) for ps in pts])[:-1])]
    for _ in range(EDGE_MAX_DEPTH):
        refine = []      # (edge, interval indices, midpoints)
        for e, (ps, vs) in enumerate(zip(pts, vals)):
            insert_at, new_pts = [], []
            for k in range(len(ps) - 1):
                a, b = vs[k], vs[k + 1]
                if a == 0 or b == 0:
                    raise ContourTooCloseError(f"edge sample hit a zero near {ps[k]}")
                r = b / a
                if abs(cmath.phase(r)) > 0.8 or not (0.25 < abs(r) < 4.0):
                    insert_at.append(k)
                    new_pts.append(0.5 * (ps[k] + ps[k + 1]))
            if new_pts:
                refine.append((e, insert_at, new_pts))
        if not refine:
            return list(zip(pts, vals))
        new_vals = iter(ev([p for _, _, new in refine for p in new]))
        for e, insert_at, new_pts in refine:
            chunk = [complex(next(new_vals)) for _ in new_pts]
            for k, p, v in zip(reversed(insert_at), reversed(new_pts),
                               reversed(chunk)):
                pts[e].insert(k + 1, p)
                vals[e].insert(k + 1, v)
    z0, z1, _ = edges[refine[0][0]]
    raise ContourTooCloseError(
        f"edge [{z0}, {z1}] not resolved after {EDGE_MAX_DEPTH} refinements"
    )


def _winding_rect(ev, rects):
    """Winding numbers of f around rectangles (re0, re1, im0, im1), all
    edges traced in one lockstep pass."""
    edges = []
    for re0, re1, im0, im1 in rects:
        corners = [complex(re0, im0), complex(re1, im0),
                   complex(re1, im1), complex(re0, im1), complex(re0, im0)]
        for a, b in zip(corners[:-1], corners[1:]):
            edges.append((a, b, max(4, int(abs(b - a) * EDGE_DENSITY) + 1)))
    traced = _trace_edges(ev, edges)
    windings = []
    for j in range(len(rects)):
        total = 0.0
        for _, vals in traced[4 * j:4 * j + 4]:
            for k in range(len(vals) - 1):
                total += cmath.phase(vals[k + 1] / vals[k])
        w = total / (2.0 * math.pi)
        if abs(w - round(w)) > 0.25:
            raise ContourTooCloseError(f"non-integer winding {w:.3f} on rectangle")
        windings.append(int(round(w)))
    return windings


def _newton_polish(scalar_fn, z):
    h = 1e-6
    for _ in range(40):
        f0 = scalar_fn(z)
        step_h = h * (1.0 + abs(z))
        fp = (scalar_fn(z + step_h) - scalar_fn(z - step_h)) / (2.0 * step_h)
        if fp == 0:
            break
        dz = f0 / fp
        z = z - dz
        if abs(dz) <= 1e-11 * (1.0 + abs(z)):
            break
    return z


_SPLIT_FRACTIONS = (0.5381966, 0.4123106, 0.6287094)


def _locate_in_rect(ev, scalar_fn, rect, w, roots, depth=0):
    """Split a rectangle of known nonzero winding w until each root is
    isolated to 1e-3, then Newton-polish it onto roots."""
    re0, re1, im0, im1 = rect
    if max(re1 - re0, im1 - im0) <= 1e-3 or depth >= 40:
        z0 = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        z = _newton_polish(scalar_fn, z0)
        roots.append((z, w))
        return
    # asymmetric split fractions so a split line landing on a root is
    # resolved by the retry ladder rather than endless edge refinement
    base = len(roots)
    for frac in _SPLIT_FRACTIONS:
        try:
            if re1 - re0 >= im1 - im0:
                rm = re0 + frac * (re1 - re0)
                children = [(re0, rm, im0, im1), (rm, re1, im0, im1)]
            else:
                im = im0 + frac * (im1 - im0)
                children = [(re0, re1, im0, im), (re0, re1, im, im1)]
            for child, wc in zip(children, _winding_rect(ev, children)):
                if wc != 0:
                    _locate_in_rect(ev, scalar_fn, child, wc, roots, depth + 1)
            return
        except ContourTooCloseError:
            del roots[base:]
            if frac == _SPLIT_FRACTIONS[-1]:
                raise


def scan_halfplane(d: int, variant: str, omega_max: float = 50.0,
                   method: str = "shooting"):
    """Roots of the eigenvalue indicator in [0, 2] x [-omega_max, omega_max].

    Argument-principle counts on bands of height 2 (starting at Im=-1 so
    the real axis is interior), Newton polish of each located root.  The
    ODE has real coefficients in lam, so only Im >= -1 bands are scanned
    and complex roots are mirrored.  method="c3" scans the closed-form
    connection coefficient instead of the shooting Wronskian.

    Returns a list of (root, multiplicity), sorted by real part descending.
    """
    if omega_max > 60.0:
        raise DomainError("omega_max must be <= 60")
    if method == "shooting":
        batch = lambda arr: _indicator_batch(d, arr, variant, rtol=1e-8)
        scalar = lambda z: eigen_indicator(d, z, variant, rtol=1e-10)[0]
    elif method == "c3":
        batch = lambda arr: np.array(
            [c3_connection(d, l, variant) for l in arr], dtype=complex)
        scalar = lambda z: c3_connection(d, z, variant)
    else:
        raise ParamError(f"unknown method {method!r}")

    roots = []
    for attempt in range(3):
        try:
            roots = []
            ev = _CachedIndicator(batch)
            shift = attempt * 0.37
            bands = []
            lo = -1.0 - shift
            while lo < omega_max:
                hi = min(lo + 2.0, omega_max + 0.5)
                bands.append((0.0, 2.0, lo, hi))
                lo = hi
            for band, w in zip(bands, _winding_rect(ev, bands)):
                if w != 0:
                    _locate_in_rect(ev, scalar, band, w, roots)
            break
        except ContourTooCloseError:
            if attempt == 2:
                raise
    # mirror complex roots (real lam-coefficients), then dedup
    mirrored = []
    for z, w in roots:
        if abs(z.imag) < 1e-9:
            mirrored.append((complex(z.real, 0.0), w))
        else:
            mirrored.append((z, w))
            mirrored.append((z.conjugate(), w))
    out = []
    for z, w in mirrored:
        if -omega_max <= z.imag <= omega_max and not any(
            abs(z - z2) < 1e-6 for z2, _ in out
        ):
            out.append((z, w))
    out.sort(key=lambda t: (-t[0].real, t[0].imag))
    return out


# ---------------------------------------------------------------------------
# closed forms at lam = 1 and near rho = 1
# ---------------------------------------------------------------------------


class ExplicitLambda1:
    """Fundamental system of the free equation at lam=1, in closed form.

    u0 = ((1+s)^{d/2-1} s)^{-1}, u1 = ((1-s)^{d/2-1}-(1+s)^{d/2-1})/(rho^{d-2} s)
    with s = sqrt(1-rho^2); their Wronskian is (d-2) rho^{1-d} (1-rho^2)^{-3/2}.
    h1 is the second solution of the perturbed equation at lam=1 used in the
    multiplicity argument, h1(rho) = int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt.
    """

    def __init__(self, d: int):
        if d < 3:
            raise DomainError("dimension must be >= 3")
        self.d = d

    def u0(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.sqrt(1.0 - rho**2)
        return 1.0 / ((1.0 + s) ** (self.d / 2.0 - 1.0) * s)

    def u0_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        return rho * (1.0 + d / 2.0 * s) / ((1.0 + s) ** (d / 2.0) * s**3)

    def u1(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        return ((1.0 - s) ** (d / 2.0 - 1.0) - (1.0 + s) ** (d / 2.0 - 1.0)) / (
            rho ** (d - 2.0) * s
        )

    def u1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        a = (1.0 - s) ** (d / 2.0 - 1.0)
        b = (1.0 + s) ** (d / 2.0 - 1.0)
        dab = (d / 2.0 - 1.0) * (rho / s) * (
            (1.0 - s) ** (d / 2.0 - 2.0) + (1.0 + s) ** (d / 2.0 - 2.0)
        )
        return dab / (rho ** (d - 2.0) * s) - (a - b) * (
            (d - 2.0) * s**2 - rho**2
        ) / (rho ** (d - 1.0) * s**3)

    def wronskian(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (self.d - 2.0) * rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5

    def h1(self, rho):
        """int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt by Gauss-Legendre."""
        rho = np.asarray(rho, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty(rho.shape)
        for i, r in enumerate(rho):
            a, b = 0.5, float(r)
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            f = t ** (1.0 - self.d) * (1.0 - t**2) ** -1.5
            out[i] = 0.5 * (b - a) * np.dot(weights, f)
        return out[0] if scalar else out

    def h1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        return rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5


class NearOneModel:
    """Model fundamental system near rho=1 before the potential correction.

    w1 = (1+rho)^{3/4-lam/2} (1-rho)^{1/4+lam/2} / sqrt(a(lam)),
    w2 = (1+rho)^{1/4+lam/2} (1-rho)^{3/4-lam/2} / sqrt(a(lam)),
    W(w1, w2) = 2i exactly.  The exponent swap lam -> 1-lam maps w1 to w2
    up to the constant sqrt(a(1-lam))/sqrt(a(lam)) (a unit modulus branch
    factor, since a(1-lam) = -a(lam)).
    """

    def __init__(self, lam: complex):
        lam = complex(lam)
        if abs(lam - 0.5) < 1e-12:
            raise IndexCollisionError("model degenerate at lam=1/2")
        self.lam = lam
        self.a = 1j * (0.5 - lam)

    def _w(self, rho, ex_plus, ex_minus):
        rho = np.asarray(rho, dtype=float)
        return (1.0 + rho) ** ex_plus * (1.0 - rho) ** ex_minus / np.sqrt(self.a)

    def w1(self, rho):
        return self._w(rho, 0.75 - self.lam / 2.0, 0.25 + self.lam / 2.0)

    def w1_deriv(self, rho):
        ex1, ex2 = 0.75 - self.lam / 2.0, 0.25 + self.lam / 2.0
        rho = np.asarray(rho, dtype=float)
        return self._w(rho, ex1, ex2) * (ex1 / (1.0 + rho) - ex2 / (1.0 - rho))

    def w2(self, rho):
        return self._w(rho, 0.25 + self.lam / 2.0, 0.75 - self.lam / 2.0)

    def w2_deriv(self, rho):
        ex1, ex2 = 0.25 + self.lam / 2.0, 0.75 - self.lam / 2.0
        rho = np.asarray(rho, dtype=float)
        return self._w(rho, ex1, ex2) * (ex1 / (1.0 + rho) - ex2 / (1.0 - rho))

    def swapped_w1(self, rho):
        """w1 with lam -> 1-lam, for the symmetry check (proportional to w2)."""
        lam2 = 1.0 - self.lam
        a2 = 1j * (0.5 - lam2)
        rho = np.asarray(rho, dtype=float)
        ex1, ex2 = 0.75 - lam2 / 2.0, 0.25 + lam2 / 2.0
        return (1.0 + rho) ** ex1 * (1.0 - rho) ** ex2 / np.sqrt(a2)


def generalized_eigen_check(d: int) -> dict:
    """int_0^1 s^{d-1} sqrt(1-s^2) ds and its positivity.

    A Jordan block above the gauge eigenvalue would force this integral
    to vanish; positivity certifies algebraic multiplicity one.
    """
    if d < 3:
        raise DomainError("dimension must be >= 3")
    # substitute s = sin(theta): the integrand becomes smooth on [0, pi/2]
    nodes, weights = np.polynomial.legendre.leggauss(80)
    th = 0.25 * math.pi * (nodes + 1.0)
    f = np.sin(th) ** (d - 1.0) * np.cos(th) ** 2
    val = 0.25 * math.pi * float(np.dot(weights, f))
    closed = math.gamma(d / 2.0) * math.gamma(1.5) / (2.0 * math.gamma(d / 2.0 + 1.5))
    return {"d": d, "value": val, "closed_form": closed, "positive": val > 0.0}
