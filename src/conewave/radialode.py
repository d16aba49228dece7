"""Generalized spectral ODE on (0,1): seeds, fundamental systems, eigenvalues.

The eigenvalue problem of the linearized similarity-coordinate operator
reduces to the second-order ODE

    (1 - rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0(lam) u = 0

with c0 = lam(lam+d-1) + d(d-2)/4 for the free variant and
c0 = lam(lam+d-1) - d for the perturbed one (the potential shifts the
zero-order coefficient by (2d+d^2)/4).  Both endpoints are regular
singular points: Frobenius indices {0, (2-d)/2} at rho=0 and
{0, 1/2-lam} at rho=1 (the series are in `frobenius`).  `ode_residual`
is its left side for given (u, u', u''), broadcast over lam.
`integrate` evaluates the fundamental system (u0, u0', u1, u1') on a
point set, u0 origin-regular and u1 analytic at 1, batched over lam; it
is the one place where the series bridge the seed gap next to each
endpoint, and every shoot of the ODE (indicator, resolvent kernel, the
closed-form checks) goes through it.
Above RHO_MID u0 is a u1 + b (1-rho)^{1/2-lam} w: the singular Frobenius
branch at 1 in the gauge u = (1-rho)^{1/2-lam} w is smooth there, so
RK45 does not step through its oscillation, and u1 is the other half of
that batch.  Below ORIGIN_START u1 ~ rho^{2-d} is u0 q by reduction of
order on the origin series (`_reduce_at_origin`), the origin's
counterpart of the pair at 1.  Within INDEX_GAP of the index resonance
(1/2 - lam an integer) the gauge pair is ill-conditioned, and u0 is
integrated to ONE_START and continued in the Frobenius pair at 1, whose
singular seed raises IndexCollisionError where the pair does not exist.
`integrate` is the only function that builds the Frobenius seeds.
Eigenvalues are located as zeros (in lam) of the Wronskian of the two
branches at RHO_MID (`matching_wronskian`, which also normalizes the
Green kernel), counted by the argument principle on one rectangle
whose boundary is traced in rounds of one indicator batch each at
TRACE_RTOL, located by the contour moments of the same samples and
polished by Newton at rtol 1e-10.
"""

import math

import numpy as np

from . import _rk45
from .errors import (ContourTooCloseError, DomainError, ParamError,
                     QuadratureError)
from .frobenius import (ONE_START, ORIGIN_START, FrobeniusSeed,
                        reduction_series, seed_one, seed_origin,
                        zero_order_coeff)
from .specfun import c3_connection

RHO_MID = 0.5            # Wronskian matching point for the indicator
# dist(1/2 - lam, Z) below which the origin-regular solution is not
# continued from RHO_MID in the gauge pair at 1: at rtol 1e-10 that pair
# loses ~4e-12 / dist relative to a direct rtol 1e-13 solve (measured at
# lam = 3/2 and 5/2, real and imaginary offsets, d 4), so 5e-3 keeps it
# below 1e-9.
INDEX_GAP = 5e-3
# initial samples per unit length of a scan edge: `_trace_boundary`
# refines wherever the samples are too sparse, so this only sets the cost
EDGE_DENSITY = 4.0
EDGE_MAX_DEPTH = 12      # bisection rounds before the boundary is unresolved
# rtol of the scan's boundary trace.  Its samples only feed the winding
# number and the Delves-Lyness estimates, which seed the Newton polish at
# rtol 1e-10.  The sum of principal arg increments stays exact while no
# increment is perturbed across +-pi, and the trace's 0.8 bound on each
# leaves ~2.3 rad for that; at 1e-6 the indicator's relative error is
# <= 6.4e-6 against rtol 1e-12 on the omega-50 window at d = 3..6.  The
# estimates (~2e-3 from lam = 1 there, set by the sampling: the c3 scan's
# are the same) only seed Newton, so no reported number depends on the
# trace's accuracy.
TRACE_RTOL = 1e-6


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
            num = c0 * u
            num -= b * up
            np.divide(num, 1.0 - rho * rho, out=out[..., 1])
            return out
        return f

    c_sig = c0 + sigma * (d - 0.5 + lam_arr)
    s_d1 = sigma * (d - 1.0)
    two_sig = 2.0 * sigma
    two_ls = two_ld + two_sig

    def f_gauged(rho, y):
        w, wp = y[..., 0], y[..., 1]
        # b - 2 sigma (1 + rho) = (d-1)/rho - 2 sigma - (2 lam + d + 2 sigma) rho
        b = (d - 1.0) / rho - two_ls * rho - two_sig
        out = np.empty_like(y)
        out[..., 0] = wp
        num = (c_sig + s_d1 / rho) * w
        num -= b * wp
        np.divide(num, 1.0 - rho * rho, out=out[..., 1])
        return out

    return f_gauged


def _pair_coefficients(u, up, first, second):
    """(a, b) with (u, u') = a first + b second for (u, u') pairs given at
    one point, elementwise: Cramer's rule through `matching_wronskian`."""
    det, _ = matching_wronskian(first, second)
    return (matching_wronskian((u, up), second)[0] / det,
            matching_wronskian(first, (u, up))[0] / det)


def _ungauge(sig, rho, w, wp):
    """(u, u') of u = (1-rho)^sig w from (w, w'); sig broadcasts against w
    and rho against its last axis."""
    x = 1.0 - rho
    xs = np.exp(sig * np.log(x))
    return xs * w, xs * (wp - (sig / x) * w)


def _reduce_at_origin(d, lam_arr, seed, rho, u0, u0p, star):
    """(u, u') on rho <= ORIGIN_START of the solution with data star = (u,
    u') at ORIGIN_START, by reduction of order on u0 = U(rho^2) (the seed's
    values (u0, u0') at rho, arrays (n_lam, n_rho)).

    Abel: W(u, u0) = C rho^{1-d} (1-rho^2)^{-1/2-lam}, so u = u0 q with
    q' = -C rho^{1-d} sum_k h_k rho^{2k} (`reduction_series`), integrated
    termwise from ORIGIN_START; e_k = 2 - d + 2k = 0 is the log branch.
    """
    r0 = ORIGIN_START
    u0s, u0ps = seed.eval(r0)
    c = (matching_wronskian(star, (u0s, u0ps))[0]
         * r0 ** (d - 1.0) * np.exp((0.5 + lam_arr) * math.log1p(-r0 * r0)))
    h = reduction_series(lam_arr, seed)
    e = 2.0 - d + 2.0 * np.arange(h.shape[1])[:, None]
    log_ratio = np.log(rho / r0)
    # (r0^e - rho^e) / e, and ln(r0 / rho) for e = 0
    g = np.where(e == 0.0, -log_ratio,
                 -np.expm1(e * log_ratio) / np.where(e == 0.0, 1.0, e)) * r0 ** e
    q = (star[0] / u0s)[:, None] + c[:, None] * (h @ g)
    w = c[:, None] * rho ** (1.0 - d) * np.exp(
        -(0.5 + lam_arr[:, None]) * np.log1p(-rho * rho))
    return u0 * q, u0p * q - w / u0


# ---------------------------------------------------------------------------
# fundamental solutions by adaptive integration
# ---------------------------------------------------------------------------


def integrate(d: int, lam_arr, variant: str, pts, rtol: float, values=()):
    """(u0, u0', u1, u1') batched over lam: u0' and u1' are (n_lam, n_pts)
    on the ascending pts in (0, 1), and u0, u1 are (n_lam, n_pts +
    n_values), on pts and then on the ascending value points `values` in
    (0, 1), where no derivative is formed.

    u0 is the origin-regular and u1 the analytic-at-one solution, both
    with unit leading seed coefficient.  This is the one place where the
    Frobenius series bridge the seed gap next to each endpoint: u0 on
    [0, ORIGIN_START] and u1 on [ONE_START, 1) are the series, and the
    rest comes from RK45 runs: a point of pts is a checkpoint, landed on
    or sub-stepped, and a value point is an RK45 sample, filled from the
    quintic Hermite of the step that covers it at no RHS call (so value
    points neither shorten a step nor cost a sub-step).  RK45 carries u0
    up from ORIGIN_START and u1 down from ONE_START.

    u0 holds the singular branch (1-rho)^sigma, sigma = 1/2 - lam, of the
    Frobenius pair at 1, which oscillates like e^{-i Im(lam) ln(1-rho)}.
    RK45 carries u0 only up to RHO_MID.  Above RHO_MID u0 is
    a u1 + b (1-rho)^sigma w, with w the singular branch in the gauge of
    `_batch_rhs` (sigma), smooth at 1 like u1: u1 and w are one RK45 batch
    of 2 n_lam members from ONE_START down to RHO_MID, and (a, b) match u0
    at RHO_MID.  An n_lam-wide run continues u1 from RHO_MID down.  Near
    the index resonance the pair is ill-conditioned: if any lam of the
    batch has dist(1/2 - lam, Z) < INDEX_GAP, RK45 carries u0 to the stop
    point ONE_START instead, where the pair's run has zero length and is
    the Frobenius seeds at 1, and u1 is one run from ONE_START.  Either way
    one Cramer solve matches u0 at the stop point in the pair.  No pair
    exists at |lam - 1/2| < 1e-8 or lam = 3/2, 5/2, ...: there
    IndexCollisionError is raised for points in (ONE_START, 1).

    The descent of u1 stops at ORIGIN_START: below it u1 ~ rho^{2-d} and
    `_reduce_at_origin` gives it in closed form from u0's series and
    Abel's identity.  This is the only RK45 entry of the package.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    pts = np.asarray(pts, dtype=float)
    values = np.asarray(values, dtype=float)
    for p in (pts, values):
        if len(p) and (p[0] <= 0.0 or p[-1] >= 1.0 or np.any(np.diff(p) < 0.0)):
            raise DomainError("points must be ascending in (0, 1)")
    n_lam, n_pts = len(lam_arr), len(pts)
    xs = np.concatenate([pts, values])   # the columns of u0 and u1
    # u1 and u0 share one buffer in the member order of the gauge pair's
    # run, which so fills the value points of both in place
    both = np.empty((2, n_lam, len(xs)), dtype=complex)
    u1, u0 = both
    u0p, u1p = (np.empty((n_lam, n_pts), dtype=complex) for _ in range(2))
    if not n_lam or not len(xs):
        return u0, u0p, u1, u1p
    sig = 0.5 - lam_arr
    so = seed_origin(d, lam_arr, variant)
    sa = seed_one(d, lam_arr, variant, "analytic")
    plain = _batch_rhs(d, lam_arr, variant)
    # initial step resolving the batch's fastest oscillation e^{a phi}
    h0 = 0.5 / (20.0 + float(np.max(np.abs(sig))))
    land = lambda rhs, x0, x_end, y0, cps, smp: _rk45.solve(
        rhs, x0, x_end, y0, rtol=rtol, atol=1e-300, checkpoints=cps,
        samples=smp, h0=h0)[1]

    def put(u, up, cols, val, der):
        # val on the columns cols, der on those of them that are pts
        u[:, cols] = val
        up[:, cols[:n_pts]] = der[:, :np.count_nonzero(cols[:n_pts])]

    def sampled(buf, cols, descending):
        # (value points, out) of a run for the value columns cols of the
        # (rows, n_cols) buffer buf, in the run's direction; None if none
        ix = np.flatnonzero(cols[n_pts:]) + n_pts
        if not len(ix):
            return None
        sl = slice(ix[0], ix[-1] + 1)
        step = -1 if descending else 1
        return xs[sl][::step], buf[:, sl][:, ::step].T

    near, at_one = xs <= ORIGIN_START, xs >= ONE_START
    v_near, d_near = so.eval(xs[near])
    put(u0, u0p, near, v_near, d_near)
    put(u1, u1p, at_one, *sa.eval(xs[at_one]))
    stop = (RHO_MID if np.min(np.abs(sig - np.round(sig.real))) >= INDEX_GAP
            else ONE_START)
    far = xs > stop   # u0 continued in a pair at 1, matched at stop
    is_pt = np.arange(len(xs)) < n_pts

    # u0 up from the origin series to stop
    mid = ~near & ~far
    cps = xs[mid & is_pt]
    if np.any(far):
        cps = np.append(cps, stop)
    if np.any(mid) or len(cps):
        x_end = stop if np.any(far) else float(np.max(xs[mid]))
        vals = land(plain, ORIGIN_START, x_end,
                    np.stack(so.eval(ORIGIN_START), axis=-1), cps,
                    sampled(u0, mid, False))
        n_mid = np.count_nonzero(mid & is_pt)
        u0[:, mid & is_pt], u0p[:, mid[:n_pts]] = (vals[:n_mid, :, 0].T,
                                                  vals[:n_mid, :, 1].T)
        if np.any(far):
            at_stop = vals[-1].T.copy()
        del vals   # freed before the next run's checkpoint values

    # u1 down from the series at 1: above RHO_MID the u_a half of the pair
    x1, y1 = ONE_START, np.stack(sa.eval(ONE_START), axis=-1)
    if np.any(far):
        ss = seed_one(d, lam_arr, variant, "singular")
        # u0's slots on far hold the singular branch until (a, b) are known
        put(u0, u0p, far & at_one, *ss.eval(xs[far & at_one]))
        # at stop = ONE_START the run is zero-length and returns the seeds
        upper = (xs >= stop) & ~at_one & is_pt
        rk = far & ~at_one
        cps = np.append(xs[upper][::-1], stop)
        # u_a and w, both Taylor series at 1, as one batch (u_a first),
        # sampled into the rows of u1 and u0 at once
        w_seed = FrobeniusSeed("one", np.zeros(n_lam, dtype=complex),
                               ss.coefficients)
        pair = land(
            _batch_rhs(d, np.tile(lam_arr, 2), variant,
                       np.concatenate([np.zeros(n_lam, dtype=complex), sig])),
            ONE_START, stop, np.concatenate([y1, np.stack(w_seed.eval(ONE_START),
                                                          axis=-1)]), cps,
            sampled(both.reshape(2 * n_lam, -1), rk, True))
        x1, y1 = stop, pair[-1, :n_lam].copy()
        basis = (y1.T, _ungauge(sig, stop, *pair[-1, n_lam:].T))
        n_up, n_rk = np.count_nonzero(upper), np.count_nonzero(rk & is_pt)
        u1[:, upper] = pair[:n_up, :n_lam, 0][::-1].T
        u1p[:, upper[:n_pts]] = pair[:n_up, :n_lam, 1][::-1].T
        u0[:, rk & is_pt], u0p[:, rk[:n_pts]] = _ungauge(
            sig[:, None], xs[rk & is_pt], *pair[:n_rk, n_lam:][::-1].T)
        del pair
        u1[:, (xs == stop) & ~is_pt] = y1[:, :1]
        # far is a range at the end of pts and one at the end of values;
        # the value points of w become the singular branch in place, and
        # the matching is done in place too
        i_pt = int(np.searchsorted(pts, stop, side="right"))
        i_val = n_pts + int(np.searchsorted(values, stop, side="right"))
        i_one = n_pts + int(np.searchsorted(values, ONE_START))
        gauge = np.multiply.outer(sig, np.log(1.0 - xs[i_val:i_one]))
        u0[:, i_val:i_one] *= np.exp(gauge, out=gauge)
        a, b = _pair_coefficients(*at_stop, *basis)
        for u, w, cols in ((u0, u1, slice(i_pt, n_pts)),
                           (u0, u1, slice(i_val, None)),
                           (u0p, u1p, slice(i_pt, None))):
            u[:, cols] *= b[:, None]
            u[:, cols] += a[:, None] * w[:, cols]

    # u1 on down to ORIGIN_START, and below it by reduction of order
    low = ~near & (xs < x1)
    cps = xs[low & is_pt][::-1]
    if np.any(near):
        cps = np.append(cps, ORIGIN_START)
    if np.any(low) or len(cps):
        x_end = ORIGIN_START if np.any(near) else float(np.min(xs[low]))
        vals = land(plain, x1, x_end, y1, cps, sampled(u1, low, True))
        n_low = np.count_nonzero(low & is_pt)
        u1[:, low & is_pt] = vals[:n_low, :, 0][::-1].T
        u1p[:, low[:n_pts]] = vals[:n_low, :, 1][::-1].T
        if np.any(near):
            star = vals[-1].T.copy()
        del vals
    if np.any(near):
        put(u1, u1p, near, *_reduce_at_origin(
            d, lam_arr, so, xs[near], v_near, d_near, star))
    if not all(np.all(np.isfinite(v)) for v in (both, u0p, u1p)):
        raise QuadratureError("fundamental solution overflowed on nodes")
    return u0, u0p, u1, u1p


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
    u0, u0p, u1, u1p = integrate(d, lam_arr, variant, [RHO_MID], rtol)
    mu, scale = matching_wronskian((u0, u0p), (u1, u1p))
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


def _trace_boundary(ev, rect):
    """(pts, vals): f sampled on the boundary of rect = (re0, re1, im0,
    im1) as one closed polyline, counter-clockwise from (re0, im0) and
    dense enough that arg increments stay below ~0.8.

    Each edge starts with EDGE_DENSITY samples per unit length (at least
    4, corners included), and the polyline refines in lockstep: each
    round evaluates the midpoints of every failing interval in one ev
    call.  No point reaches ev twice; the closing point is the first.
    The polyline is checked after every round, and ContourTooCloseError
    is raised if it still fails after EDGE_MAX_DEPTH refinements.
    """
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1),
               complex(re0, im1), complex(re0, im0)]
    edges = []
    for a, b in zip(corners[:-1], corners[1:]):
        n = max(4, int(abs(b - a) * EDGE_DENSITY) + 1)
        edges.append(a + (b - a) * np.linspace(0.0, 1.0, n)[:-1])
    pts = np.concatenate(edges + [corners[:1]])
    vals = ev(pts[:-1])
    vals = np.append(vals, vals[0])
    for depth in range(EDGE_MAX_DEPTH + 1):
        if np.any(vals == 0):
            raise ContourTooCloseError(f"zero sample at {pts[vals == 0][0]}")
        r = vals[1:] / vals[:-1]
        bad = np.flatnonzero((np.abs(np.angle(r)) > 0.8)
                             | ~((0.25 < np.abs(r)) & (np.abs(r) < 4.0)))
        if not len(bad):
            return pts, vals
        if depth == EDGE_MAX_DEPTH:
            raise ContourTooCloseError(
                f"boundary of {rect} not resolved after {depth} refinements")
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, ev(mids))


def _winding_rect(ev, rect):
    """(w, estimates): winding number of f around the rectangle (re0,
    re1, im0, im1) and its w roots, from one traced boundary.

    Delves & Lyness: the power sums s_k = (1/2 pi i) oint z^k dlog f, by
    the midpoint rule on the ratios vals[i+1]/vals[i] whose phases give w,
    are the roots' monic polynomial through the Newton identities.
    """
    pts, vals = _trace_boundary(ev, rect)
    logs = np.log(vals[1:] / vals[:-1])
    w = np.sum(logs.imag) / (2.0 * math.pi)
    if abs(w - round(w)) > 0.25:
        raise ContourTooCloseError(f"non-integer winding {w:.3f} on {rect}")
    w = int(round(w))
    mids = 0.5 * (pts[1:] + pts[:-1])
    s = [np.sum(mids**k * logs) / (2j * math.pi) for k in range(w + 1)]
    c = [1.0]  # the roots' monic polynomial, by the Newton identities
    for k in range(1, w + 1):
        c.append(-sum(c[i] * s[k - i] for i in range(k)) / k)
    return w, np.roots(c)


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
    1e-6 merge, one leaving the rectangle raises ContourTooCloseError
    (the scan then retries with a shifted window)."""
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

    One argument-principle count on the window [0, 2] x [-1, omega_max +
    0.5] (starting at Im=-1 so the real axis is interior) and root
    estimates from the same boundary samples, Newton-polished on 3-point
    indicator batches (rtol 1e-10).  Each round of the boundary trace
    (the initial polyline, then the midpoints of its failing intervals)
    is one indicator batch at TRACE_RTOL.  An unresolved boundary, or a
    root polished out of the window, retries the scan with the window's
    bottom edge moved down by 0.37.
    The ODE has real coefficients in lam, so only Im >= -1 is scanned and
    complex roots are mirrored.  method="c3" scans the closed-form
    connection coefficient instead of the shooting Wronskian.

    Returns a list of (root, multiplicity), sorted by real part descending.
    """
    if not 0.0 <= omega_max <= 60.0:
        raise DomainError("omega_max must be in [0, 60]")
    if method == "shooting":
        batch = lambda arr: _indicator_batch(d, arr, variant,
                                             rtol=TRACE_RTOL)
        polish = lambda arr: eigen_indicator(d, arr, variant, rtol=1e-10)[0]
    elif method == "c3":
        batch = polish = lambda arr: np.array(
            [c3_connection(d, l, variant) for l in arr], dtype=complex)
    else:
        raise ParamError(f"unknown method {method!r}")

    for attempt in range(3):
        rect = (0.0, 2.0, -1.0 - 0.37 * attempt, omega_max + 0.5)
        try:
            roots = _polish_band(polish, rect, _winding_rect(batch, rect)[1])
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
