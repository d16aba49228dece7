"""Generalized spectral ODE on (0,1): seeds, fundamental systems, eigenvalues.

The eigenvalue problem of the linearized similarity-coordinate operator
reduces to the second-order ODE

    (1 - rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0(lam) u = 0

with c0 = lam(lam+d-1) + d(d-2)/4 for the free variant and
c0 = lam(lam+d-1) - d for the perturbed one (the potential shifts the
zero-order coefficient by (2d+d^2)/4).  Both endpoints are regular
singular points: Frobenius indices {0, (2-d)/2} at rho=0 and
{0, 1/2-lam} at rho=1.  `ode_residual` is its left side for given
(u, u', u''), broadcast over lam.  `integrate` evaluates the
origin-regular and the analytic-at-one branches on point sets, batched
over lam; it is the one place where the Frobenius series bridges the
seed gap next to each endpoint, and every shoot of the ODE (indicator,
resolvent kernel, the closed-form checks) goes through it.  Above
RHO_MID the origin branch is a u_analytic + b (1-rho)^{1/2-lam} w: the
singular Frobenius branch at 1 in the gauge u = (1-rho)^{1/2-lam} w is
smooth there, so RK45 does not step through its oscillation.  Within
INDEX_GAP of the index resonance (1/2 - lam an integer) that pair is
ill-conditioned, and the origin branch is integrated to ONE_START and
continued in the Frobenius pair at 1 (`match_at_one`), which raises
IndexCollisionError where the pair does not exist.
Eigenvalues are located as zeros (in lam) of the Wronskian of the two
branches at RHO_MID (`matching_wronskian`, which also normalizes the
Green kernel), counted by the argument principle on bands, located by
the contour moments of the same samples and polished by Newton.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _rk45
from .errors import (ContourTooCloseError, DomainError, IndexCollisionError,
                     ParamError, QuadratureError)
from .model import check_dimension
from .specfun import c3_connection

ORIGIN_START = 1e-3      # integration starts here (series below)
ONE_START = 1.0 - 1e-3
SEED_ORDER = 8
RHO_MID = 0.5            # Wronskian matching point for the indicator
# dist(1/2 - lam, Z) below which the origin-regular solution is not
# continued from RHO_MID in the gauge pair at 1: at rtol 1e-10 that pair
# loses ~4e-12 / dist relative to a direct rtol 1e-13 solve (measured at
# lam = 3/2 and 5/2, real and imaginary offsets, d 4), so 5e-3 keeps it
# below 1e-9.
INDEX_GAP = 5e-3
EDGE_DENSITY = 10.0      # initial samples per unit length of a scan edge
EDGE_MAX_DEPTH = 12      # bisection rounds before an edge counts as unresolved


def zero_order_coeff(d: int, lam, variant: str):
    """c0(lam) for a scalar or an array of lam."""
    check_dimension(d)
    lam = np.asarray(lam, dtype=complex)
    base = lam * (lam + d - 1.0)
    if variant == "free":
        return base + d * (d - 2.0) / 4.0
    if variant == "perturbed":
        return base - d
    raise ParamError(f"unknown variant {variant!r}")


def ode_residual(d: int, lam, variant: str, rho, u, up, upp):
    """(1-rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0(lam) u,
    elementwise over the broadcast of lam, rho and (u, u', u'')."""
    lam = np.asarray(lam, dtype=complex)
    b = (d - 1.0) / rho - (2.0 * lam + d) * rho
    return (1.0 - rho**2) * upp + b * up - zero_order_coeff(d, lam, variant) * u


def _batch_rhs(d: int, lam_arr, variant: str, sigma=None):
    """RK45 right-hand side f(rho, y), y = (u, u') of shape (..., n_lam, 2);
    rho is a scalar or, for an RK45 checkpoint sub-step, an (m, 1) array.

    With sigma (one per lam) y = (w, w') of the gauge u = (1-rho)^sigma w,
    sigma = 1/2 - lam or 0, which solves
    (1-rho^2) w'' + (b - 2 sigma (1+rho)) w' - (c0 + sigma (d - 1/2 + lam)
    + sigma (d-1)/rho) w = 0 with b = (d-1)/rho - (2 lam + d) rho.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    c0 = zero_order_coeff(d, lam_arr, variant)
    two_ld = 2.0 * lam_arr + d

    if sigma is None:
        def f(rho, y):
            u, up = y[..., 0], y[..., 1]
            b = (d - 1.0) / rho - two_ld * rho
            out = np.empty_like(y)
            out[..., 0] = up
            out[..., 1] = (c0 * u - b * up) / (1.0 - rho * rho)
            return out
        return f

    c_sig = c0 + sigma * (d - 0.5 + lam_arr)
    s_d1 = sigma * (d - 1.0)
    two_ls = two_ld + 2.0 * sigma

    def f_gauged(rho, y):
        w, wp = y[..., 0], y[..., 1]
        # b - 2 sigma (1 + rho) = (d-1)/rho - 2 sigma - (2 lam + d + 2 sigma) rho
        b = (d - 1.0) / rho - two_ls * rho - 2.0 * sigma
        out = np.empty_like(y)
        out[..., 0] = wp
        out[..., 1] = ((c_sig + s_d1 / rho) * w - b * wp) / (1.0 - rho * rho)
        return out

    return f_gauged


# ---------------------------------------------------------------------------
# Frobenius seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusSeed:
    """Truncated Frobenius series at a singular endpoint, one per lam.

    origin: u(rho) = sum_k a_k rho^{2k} (index 0, the H^1 branch);
    one:    u(rho) = x^sigma sum_k b_k x^k with x = 1 - rho and
            sigma = 0 (analytic) or 1/2 - lam (singular).
    coefficients is (n_lam, K) and index (n_lam,); a member whose series
    stopped below order K - 1 has zero coefficients above its order.
    """

    endpoint: str                   # "origin" | "one"
    index: np.ndarray
    coefficients: np.ndarray = field(repr=False)

    def eval(self, rho):
        """(u, du/drho) at rho (scalar or array), shape (n_lam,) + rho.shape."""
        u, up, _ = self.eval2(rho)
        return u, up

    def eval2(self, rho):
        """(u, u', u'') at rho, all from the truncated series by Horner
        over the coefficient axis."""
        rho = np.asarray(rho, dtype=float)
        # column k broadcasts against rho: b[k] has shape (n_lam, 1, ...)
        b = self.coefficients.T.reshape(
            self.coefficients.shape[::-1] + (1,) * rho.ndim)
        zero = np.zeros(b.shape[1:2] + rho.shape, dtype=complex)
        if self.endpoint == "origin":
            u = up = upp = zero
            r2 = rho * rho
            for k in range(len(b) - 1, 0, -1):
                u = u * r2 + b[k]
                up = up * r2 + 2 * k * b[k]
                upp = upp * r2 + 2 * k * (2 * k - 1) * b[k]
            u = u * r2 + b[0]
            return u, up * rho, upp
        x = 1.0 - rho
        s = sp = spp = zero
        for k in range(len(b) - 1, 1, -1):
            s = s * x + b[k]
            sp = sp * x + k * b[k]
            spp = spp * x + k * (k - 1) * b[k]
        s = s * x + b[1]
        sp = sp * x + b[1]
        s = s * x + b[0]
        if not np.any(self.index):
            y, yp, ypp = s, sp, spp
        else:
            sig = self.index.reshape(b.shape[1:])
            xs = np.exp(sig * np.log(x))
            y = xs * s
            yp = xs * (sp + sig * s / x)
            ypp = xs * (spp + 2.0 * sig * sp / x + sig * (sig - 1.0) * s / x**2)
        return y, -yp, ypp


def _series(n_lam, next_coeff, x0, power):
    """(n_lam, K) coefficients c_0 = 1, c_{m+1} = next_coeff(m, cs, active).

    Each member takes at least SEED_ORDER steps and stops once its last
    coefficient is below 1e-17 at x0 (|c_m| x0^{power m}), or at order 80;
    its coefficients above its own stopping order are zero.
    """
    cs = [np.ones(n_lam, dtype=complex)]
    active = np.ones(n_lam, dtype=bool)
    for m in range(80):
        if m >= SEED_ORDER:
            active &= np.abs(cs[-1]) * x0 ** (power * m) > 1e-17
            if not active.any():
                break
        cs.append(np.where(active, next_coeff(m, cs, active), 0.0))
    return np.stack(cs, axis=1)


def seed_origin(d: int, lam_arr, variant: str) -> FrobeniusSeed:
    """Index-0 even series at rho=0 for each lam: a_{k+1}/a_k from the ODE
    recurrence."""
    lam = np.asarray(lam_arr, dtype=complex)
    c0 = zero_order_coeff(d, lam, variant)

    def next_coeff(k, a, active):
        num = 4.0 * k * k + 2.0 * k * (2.0 * lam + d - 1.0) + c0
        return a[-1] * num / ((2.0 * k + 2.0) * (2.0 * k + d))

    coeffs = _series(len(lam), next_coeff, ORIGIN_START, 2)
    return FrobeniusSeed("origin", np.zeros(len(lam), dtype=complex), coeffs)


def seed_one(d: int, lam_arr, variant: str, branch: str) -> FrobeniusSeed:
    """Frobenius series at rho=1 for each lam; indices {0, 1/2-lam}.

    analytic: Taylor in x = 1-rho with leading coefficient 1;
    singular: x^{1/2-lam} (series), unavailable for lam near 1/2.

    The recurrence comes from multiplying the ODE by (1-x) to clear the
    1/(1-x) coefficient: with y(x) = u(1-x),
    P y'' + Q y' + R y = 0,  P = 2x - 3x^2 + x^3,
    Q = (2 lam + 1) - 2(2 lam + d) x + (2 lam + d) x^2,  R = -c0 + c0 x.
    """
    lam = np.asarray(lam_arr, dtype=complex)
    c0 = zero_order_coeff(d, lam, variant)
    if branch == "analytic":
        sig = np.zeros(len(lam), dtype=complex)
    elif branch == "singular":
        sig = 0.5 - lam
        if np.any(np.abs(sig) < 1e-8):
            raise IndexCollisionError("Frobenius indices collide at lam=1/2")
    else:
        raise ParamError(f"unknown branch {branch!r}")
    two_ld = 2.0 * lam + d

    def next_coeff(m, b, active):
        ms = m + sig
        c_m = (ms + 1.0) * (2.0 * ms + 2.0 * lam + 1.0)
        bad = active & (np.abs(c_m) < 1e-12)
        if np.any(bad):
            raise IndexCollisionError(
                f"recurrence degenerate at order {m + 1} for lam={lam[bad]}"
            )
        a_m = -3.0 * ms * (ms - 1.0) - 2.0 * two_ld * ms - c0
        b_m = (ms - 1.0) * (ms - 2.0) + two_ld * (ms - 1.0) + c0
        prev2 = b[m - 1] if m >= 1 else 0.0
        return -(a_m * b[m] + b_m * prev2) / np.where(active, c_m, 1.0)

    coeffs = _series(len(lam), next_coeff, 1.0 - ONE_START, 1)
    return FrobeniusSeed("one", sig, coeffs)


def _pair_coefficients(u, up, first, second):
    """(a, b) with (u, u') = a first + b second for (u, u') pairs given at
    one point, elementwise: Cramer's rule through `matching_wronskian`."""
    det, _ = matching_wronskian(first, second)
    return (matching_wronskian((u, up), second)[0] / det,
            matching_wronskian(first, (u, up))[0] / det)


def match_at_one(d: int, lam_arr, variant: str, u, up):
    """Coefficients in the Frobenius pair at rho=1 of the solutions with
    data (u, u') at ONE_START, one per lam.

    Returns (a, b, (analytic, singular)): arrays with u = a u_analytic +
    b u_singular on [ONE_START, 1) and the batched seeds of the pair.
    Raises IndexCollisionError where the singular branch is no pure
    Frobenius series: |lam - 1/2| < 1e-8 or lam = 3/2, 5/2, ...
    """
    sa = seed_one(d, lam_arr, variant, "analytic")
    ss = seed_one(d, lam_arr, variant, "singular")
    a, b = _pair_coefficients(u, up, sa.eval(ONE_START), ss.eval(ONE_START))
    return a, b, (sa, ss)


def _ungauge(sig, rho, w, wp):
    """(u, u') of u = (1-rho)^sig w from (w, w'); sig broadcasts against w
    and rho against its last axis."""
    x = 1.0 - rho
    xs = np.exp(sig * np.log(x))
    return xs * w, xs * (wp - (sig / x) * w)


# ---------------------------------------------------------------------------
# fundamental solutions by adaptive integration
# ---------------------------------------------------------------------------


def integrate(d: int, lam_arr, variant: str, endpoint: str, pts, rtol: float):
    """(u, u') of the solution seeded at `endpoint` on ascending pts in
    (0, 1), batched over lam; arrays (n_lam, n_pts).

    The origin-seeded solution is the regular one, the one-seeded solution
    the analytic one, both with unit leading seed coefficient.  Points
    inside the seed gap [0, ORIGIN_START] or [ONE_START, 1] are evaluated
    from the Frobenius series, the rest by landing RK45 checkpoints on
    them (integrating toward 0 for the one-seeded solution).

    The origin-seeded solution holds the singular branch (1-rho)^sigma,
    sigma = 1/2 - lam, of the Frobenius pair at 1, which oscillates like
    e^{-i Im(lam) ln(1-rho)}.  RK45 carries it only up to RHO_MID.  Above
    RHO_MID it is a u_a + b (1-rho)^sigma w: u_a is the analytic-at-one
    solution and w the singular branch in the gauge of `_batch_rhs`
    (sigma), both smooth at 1, integrated as one RK45 batch of 2 n_lam
    members from ONE_START down to RHO_MID (series on [ONE_START, 1)),
    and (a, b) match the origin-seeded (u, u') at RHO_MID.  Near the
    index resonance the pair is ill-conditioned: if any lam of the batch
    has dist(1/2 - lam, Z) < INDEX_GAP, RK45 carries the origin-seeded
    solution to ONE_START and it continues in the Frobenius pair at 1
    (`match_at_one`).  That pair does not exist at |lam - 1/2| < 1e-8 or
    lam = 3/2, 5/2, ..., so there the origin-seeded solution raises
    IndexCollisionError for points in (ONE_START, 1) and works below.
    This is the only RK45 entry of the package.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    pts = np.asarray(pts, dtype=float)
    if len(pts) and (pts[0] <= 0.0 or pts[-1] >= 1.0 or np.any(np.diff(pts) < 0.0)):
        raise DomainError("points must be ascending in (0, 1)")
    n_lam, n_pts = len(lam_arr), len(pts)
    u = np.empty((n_lam, n_pts), dtype=complex)
    up = np.empty((n_lam, n_pts), dtype=complex)
    if not n_lam:
        return u, up
    sig = 0.5 - lam_arr

    if endpoint == "origin":
        seed = seed_origin(d, lam_arr, variant)
        start, gap = ORIGIN_START, pts <= ORIGIN_START
        stop = (RHO_MID if np.min(np.abs(sig - np.round(sig.real))) >= INDEX_GAP
                else ONE_START)
        far = pts > stop   # continued in the pair at 1, matched at stop
        cps = pts[~gap & ~far]
        if np.any(far):
            cps = np.append(cps, stop)
    else:
        seed = seed_one(d, lam_arr, variant, "analytic")
        start, gap = ONE_START, pts >= ONE_START
        far = np.zeros(n_pts, dtype=bool)
        cps = pts[~gap][::-1]  # descending toward 0
    if np.any(gap):
        u[:, gap], up[:, gap] = seed.eval(pts[gap])
    runs = [(_batch_rhs(d, lam_arr, variant), start,
             np.stack(seed.eval(start), axis=-1), cps)]
    if np.any(far):
        sa = seed_one(d, lam_arr, variant, "analytic")
        ss = seed_one(d, lam_arr, variant, "singular")
        series = far & (pts >= ONE_START)
        rk = far & ~series
        if stop == RHO_MID:
            # u_a and w, both Taylor series at 1, as one batch (u_a first)
            w_seed = FrobeniusSeed("one", np.zeros(n_lam, dtype=complex),
                                   ss.coefficients)
            runs.append((
                _batch_rhs(d, np.tile(lam_arr, 2), variant,
                           np.concatenate([np.zeros(n_lam, dtype=complex), sig])),
                ONE_START,
                np.concatenate([np.stack(s.eval(ONE_START), axis=-1)
                                for s in (sa, w_seed)]),
                np.append(pts[rk][::-1], RHO_MID)))
    # initial step resolving the batch's fastest oscillation e^{a phi}
    h0 = 0.5 / (20.0 + float(np.max(np.abs(sig))))
    vals = []
    for rhs, x0, y0, run_cps in runs:
        if len(run_cps):
            _, cp_vals, _ = _rk45.solve(rhs, x0, float(run_cps[-1]), y0,
                                        rtol=rtol, atol=1e-300,
                                        checkpoints=run_cps, h0=h0)
            if not np.all(np.isfinite(cp_vals)):
                raise QuadratureError("fundamental solution overflowed on nodes")
            vals.append(cp_vals)
    if not len(cps):
        return u, up

    cp_vals = vals.pop(0)
    if endpoint == "one":
        cp_vals = cp_vals[::-1]
    mid = ~gap & ~far
    n_mid = np.count_nonzero(mid)
    u[:, mid] = cp_vals[:n_mid, :, 0].T
    up[:, mid] = cp_vals[:n_mid, :, 1].T
    if not np.any(far):
        return u, up
    at_stop = cp_vals[-1].T.copy()
    del cp_vals   # freed before the pair's (n_lam, n_pts) temporaries
    if stop == RHO_MID:
        pair = vals.pop()   # (u_a, w) from ONE_START down to RHO_MID
        a, b = _pair_coefficients(*at_stop, pair[-1, :n_lam].T,
                                  _ungauge(sig, RHO_MID, *pair[-1, n_lam:].T))
        yu, yp = pair[:-1][::-1].T
        us, ups = _ungauge(sig[:, None], pts[rk], yu[n_lam:], yp[n_lam:])
        u[:, rk] = a[:, None] * yu[:n_lam] + b[:, None] * us
        up[:, rk] = a[:, None] * yp[:n_lam] + b[:, None] * ups
    else:
        a, b, _ = match_at_one(d, lam_arr, variant, *at_stop)
    (ua, upa), (us, ups) = sa.eval(pts[series]), ss.eval(pts[series])
    u[:, series] = a[:, None] * ua + b[:, None] * us
    up[:, series] = a[:, None] * upa + b[:, None] * ups
    return u, up


def matching_wronskian(first, second):
    """(W, scale) of two solutions given as (u, u') pairs at one matching
    point, elementwise over arrays.

    W = W(first, second) = u_f u_s' - u_f' u_s, and scale = (|u_f| +
    |u_f'|)(|u_s| + |u_s'|) is its natural magnitude.  The eigen indicator
    is mu = W(u_origin, u_one); the Green kernel is normalized by
    W(u_one, u_origin) = -mu.
    """
    (uf, ufp), (us, usp) = first, second
    scale = (np.abs(uf) + np.abs(ufp)) * (np.abs(us) + np.abs(usp))
    return uf * usp - ufp * us, scale


# ---------------------------------------------------------------------------
# eigenvalue indicator and half-plane scan
# ---------------------------------------------------------------------------


def _mid_wronskian(d, lam_arr, variant, rtol):
    """(mu, scale) at RHO_MID for an array of lam, arrays (n_lam,)."""
    mu, scale = matching_wronskian(
        integrate(d, lam_arr, variant, "origin", [RHO_MID], rtol),
        integrate(d, lam_arr, variant, "one", [RHO_MID], rtol))
    return mu[:, 0], scale[:, 0]


def _indicator_batch(d: int, lam_arr, variant: str, rtol: float = 1e-9):
    """mu(lam) = W(u_origin, u_analytic-at-1)(RHO_MID) for an array of lam.

    Solutions are normalized to unit seed data, so mu's scale is O(|u|^2).
    """
    return _mid_wronskian(d, lam_arr, variant, rtol)[0]


def eigen_indicator(d: int, lam, variant: str, rtol: float = 1e-10):
    """(mu, scale): the indicator and its natural magnitude scale, complex
    and float for a scalar lam, arrays for an array of lam (one batch).

    Zeros of mu in lam are the eigenvalues of the variant's operator.
    Reliable for Re(lam) >= -1/2 and |lam - 1/2| >= 1e-6.
    """
    mu, scale = _mid_wronskian(d, np.atleast_1d(lam), variant, rtol)
    if np.ndim(lam) == 0:
        return complex(mu[0]), float(scale[0])
    return mu, scale


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
    """[(w, estimates)]: winding number of f around each rectangle (re0,
    re1, im0, im1) and its w roots, all edges traced in one lockstep pass.

    Delves & Lyness: the power sums s_k = (1/2 pi i) oint z^k dlog f, by
    the midpoint rule on the ratios vals[i+1]/vals[i] whose phases give w,
    are the roots' monic polynomial through the Newton identities.
    """
    edges = []
    for re0, re1, im0, im1 in rects:
        corners = [complex(re0, im0), complex(re1, im0),
                   complex(re1, im1), complex(re0, im1), complex(re0, im0)]
        for a, b in zip(corners[:-1], corners[1:]):
            edges.append((a, b, max(4, int(abs(b - a) * EDGE_DENSITY) + 1)))
    traced = _trace_edges(ev, edges)
    out = []
    for j in range(len(rects)):
        # one closed polyline: each corner repeats, adding log(1) = 0
        pts = np.concatenate([p for p, _ in traced[4 * j:4 * j + 4]])
        vals = np.concatenate([v for _, v in traced[4 * j:4 * j + 4]])
        logs = np.log(vals[1:] / vals[:-1])
        w = np.sum(logs.imag) / (2.0 * math.pi)
        if abs(w - round(w)) > 0.25:
            raise ContourTooCloseError(f"non-integer winding {w:.3f} on rectangle")
        w = int(round(w))
        mids = 0.5 * (pts[1:] + pts[:-1])
        s = [np.sum(mids**k * logs) / (2j * math.pi) for k in range(w + 1)]
        c = [1.0]  # the roots' monic polynomial, by the Newton identities
        for k in range(1, w + 1):
            c.append(-sum(c[i] * s[k - i] for i in range(k)) / k)
        out.append((w, np.roots(c)))
    return out


def _newton_polish(batch_fn, z):
    """Newton from z; each iteration evaluates f(z) and the central
    difference's f(z + h), f(z - h) in one batch_fn call."""
    h = 1e-6
    for _ in range(40):
        step_h = h * (1.0 + abs(z))
        f0, f_plus, f_minus = batch_fn(np.array([z, z + step_h, z - step_h]))
        fp = (f_plus - f_minus) / (2.0 * step_h)
        if fp == 0:
            break
        dz = complex(f0 / fp)
        z = z - dz
        if abs(dz) <= 1e-11 * (1.0 + abs(z)):
            break
    return z


def _polish_band(batch_fn, rect, estimates):
    """[(root, multiplicity)] from Newton on each estimate; roots within
    1e-6 merge, one leaving the rectangle raises ContourTooCloseError."""
    re0, re1, im0, im1 = rect
    roots = []
    for z in estimates:
        z = _newton_polish(batch_fn, complex(z))
        if not (re0 <= z.real <= re1 and im0 <= z.imag <= im1):
            raise ContourTooCloseError(f"root {z} polished out of {rect}")
        for i, (z2, m) in enumerate(roots):
            if abs(z - z2) < 1e-6:
                roots[i] = (z2, m + 1)
                break
        else:
            roots.append((z, 1))
    return roots


def scan_halfplane(d: int, variant: str, omega_max: float = 50.0,
                   method: str = "shooting"):
    """Roots of the eigenvalue indicator in [0, 2] x [-omega_max, omega_max].

    Argument-principle counts on bands of height 2 (starting at Im=-1 so
    the real axis is interior) and root estimates from the same samples,
    Newton-polished on 3-point indicator batches (rtol 1e-10).  An
    unresolved band, or a root polished out of its band, retries the scan
    with shifted bands.
    The ODE has real coefficients in lam, so only Im >= -1 bands are
    scanned and complex roots are mirrored.  method="c3" scans the
    closed-form connection coefficient instead of the shooting Wronskian.

    Returns a list of (root, multiplicity), sorted by real part descending.
    """
    if omega_max > 60.0:
        raise DomainError("omega_max must be <= 60")
    if method == "shooting":
        batch = lambda arr: _indicator_batch(d, arr, variant, rtol=1e-8)
        polish = lambda arr: eigen_indicator(d, arr, variant, rtol=1e-10)[0]
    elif method == "c3":
        batch = polish = lambda arr: np.array(
            [c3_connection(d, l, variant) for l in arr], dtype=complex)
    else:
        raise ParamError(f"unknown method {method!r}")

    for attempt in range(3):
        try:
            ev = _CachedIndicator(batch)
            shift = attempt * 0.37
            bands = []
            lo = -1.0 - shift
            while lo < omega_max:
                hi = min(lo + 2.0, omega_max + 0.5)
                bands.append((0.0, 2.0, lo, hi))
                lo = hi
            roots = []
            for band, (_, estimates) in zip(bands, _winding_rect(ev, bands)):
                roots += _polish_band(polish, band, estimates)
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
