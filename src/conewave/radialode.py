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
is the one place where the series cover the zones next to each endpoint,
and every shoot of the ODE (indicator, resolvent kernel, the closed-form
checks) goes through it.
Above RHO_MID u0 is a u1 + b (1-rho)^{1/2-lam} w: the singular Frobenius
branch at 1 in the gauge u = (1-rho)^{1/2-lam} w is smooth there, so
RK45 does not step through its oscillation, and u1 is the other half of
that batch.  Below the handoff r0 u1 ~ rho^{2-d} is u0 q by reduction
of order on the origin series (`_reduce_at_origin`), the origin's
counterpart of the pair at 1.  Within `frobenius.INDEX_GAP` of the
index resonance (1/2 - lam an integer) the gauge pair is ill-conditioned,
and u0 is integrated to ONE_START and continued in the Frobenius pair at
1, whose singular seed raises IndexCollisionError where it does not exist.
`integrate` is the only function that builds the Frobenius seeds.
Eigenvalues are located as zeros (in lam) of the Wronskian of the two
branches at RHO_MID (`matching_wronskian`, which also normalizes the
Green kernel), counted by the argument principle on one rectangle
whose boundary is traced in rounds of one indicator batch each at
TRACE_RTOL, located by the contour moments of the same samples and
polished by Newton at rtol 1e-10.  The variant enters the ODE only
through c0, so a batch may mix variants, one per lam: the free and the
perturbed contours are traced in lockstep as one batch per round.
"""

import math

import numpy as np

from . import _rk45
from .errors import (ContourTooCloseError, DomainError, ParamError,
                     QuadratureError)
from .frobenius import (FrobeniusSeed, handoff, reduction_series, seed_one,
                        seed_origin, zero_order_coeff)
from .specfun import c3_connection

RHO_MID = 0.5            # Wronskian matching point for the indicator
# initial samples per unit length of a scan edge: `_trace_boundary`
# refines wherever the samples are too sparse, so this only sets the cost
EDGE_DENSITY = 4.0
EDGE_MAX_DEPTH = 12      # bisection rounds before the boundary is unresolved
# rtol of the scan's boundary trace.  Its samples only feed the winding
# number and the Delves-Lyness estimates, which seed the Newton polish at
# rtol 1e-10.  The sum of principal arg increments stays exact while no
# increment is perturbed across +-pi, and the trace's 0.8 bound on each
# leaves ~2.3 rad for that; at 1e-6 the indicator's relative error stays
# in a 6.4e-6 budget against rtol 1e-12 on the omega-50 window at d =
# 3..6 (4.2e-6 measured).  The estimates (~2e-3 from lam = 1, set by the
# sampling: the c3 scan's are the same) only seed Newton, so no reported
# number depends on the trace's accuracy.
TRACE_RTOL = 1e-6
# (lam, node) values per block of node values handed to quad.add (RK45
# samples: at least this many, or the run's last, plus one step's)
NODE_BLOCK = 2**14


def ode_residual(d: int, lam, variant: str, rho, u, up, upp):
    """(1-rho^2) u'' + ((d-1)/rho - (2 lam + d) rho) u' - c0(lam) u,
    elementwise over the broadcast of lam, rho and (u, u', u'')."""
    lam = np.asarray(lam, dtype=complex)
    b = (d - 1.0) / rho - (2.0 * lam + d) * rho
    return (1.0 - rho**2) * upp + b * up - zero_order_coeff(d, lam, variant) * u


def _batch_rhs(d: int, lam_arr, variant: str, sigma=None):
    """RK45 right-hand side f(rho, y) at a scalar rho, y = (u, u') of
    shape (n_lam, 2).

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


# ---------------------------------------------------------------------------
# fundamental solutions by adaptive integration
# ---------------------------------------------------------------------------


def _origin_reduction(d, lam_arr, seed, r0, star):
    """The map (rho, u0, u0') -> (u, u') on rho <= r0 of the solution with
    data star = (u, u') at r0, by reduction of order on u0 = U(rho^2): u0
    is the seed's value on rho and u0' its derivative on the first m
    points, which are the ones where u' is formed (arrays (n_lam, n_rho)
    and (n_lam, m)).

    Abel: W(u, u0) = C rho^{1-d} (1-rho^2)^{-1/2-lam}, so u = u0 q with
    q' = -C rho^{1-d} sum_k h_k rho^{2k} (`reduction_series`), integrated
    termwise from r0; e_k = 2 - d + 2k = 0 is the log branch.
    """
    u0s, u0ps = seed.eval(r0)
    c = (matching_wronskian(star, (u0s, u0ps))[0]
         * r0 ** (d - 1.0) * np.exp((0.5 + lam_arr) * math.log1p(-r0 * r0)))
    h = reduction_series(lam_arr, seed, r0)
    e = 2.0 - d + 2.0 * np.arange(h.shape[1])[:, None]

    def reduce(rho, u0, u0p):
        log_ratio = np.log(rho / r0)
        # (r0^e - rho^e) / e, and ln(r0 / rho) for e = 0
        g = np.where(e == 0.0, -log_ratio, -np.expm1(e * log_ratio)
                     / np.where(e == 0.0, 1.0, e)) * r0 ** e
        q = (star[0] / u0s)[:, None] + c[:, None] * (h @ g)
        m = u0p.shape[1]
        w = c[:, None] * rho[:m] ** (1.0 - d) * np.exp(
            -(0.5 + lam_arr[:, None]) * np.log1p(-rho[:m] * rho[:m]))
        return u0 * q, u0p * q[:, :m] - w / u0[:, :m]
    return reduce


def integrate(d: int, lam_arr, variant, pts, rtol: float, quad=None):
    """(u0, u0', u1, u1') batched over lam, with variant one name or one
    per lam: arrays (n_lam, n_pts) on the ascending pts in (0, 1).  With
    a quad (`green.PanelSums`) the panel sums of u0 and u1 on its
    ascending nodes in (0, 1) are added to quad.s0 and quad.s1; node
    values live only in blocks of ~NODE_BLOCK values, handed to quad.add.

    u0 is the origin-regular and u1 the analytic-at-one solution, both
    with unit leading seed coefficient.  This is the one place where the
    Frobenius series cover the zones next to each endpoint: u0 on [0, r0]
    and u1 on [1 - t1, 1) are the series, (r0, t1) the batch's `handoff`
    (0.1 at max|lam| <= 15, 3.75e-3 and 0.015 at |lam| 400).  The rest
    comes from RK45 runs: a point of pts is a checkpoint, which the steps
    land on, and a node is an RK45 sample, filled from the quintic
    Hermite of the step that covers it at no RHS call (so nodes never
    shorten a step), into `_rk45.SampleBlocks`, which hands over blocks.
    RK45 carries u0 up from r0 and u1 down from 1 - t1; the states that
    the matching at the stop point and the reduction below r0 read are
    the runs' end states, not checkpoints.

    u0 holds the singular branch (1-rho)^sigma, sigma = 1/2 - lam, of the
    Frobenius pair at 1, which oscillates like e^{-i Im(lam) ln(1-rho)}.
    RK45 carries u0 only up to RHO_MID.  Above RHO_MID u0 is
    a u1 + b (1-rho)^sigma w, with w the singular branch in the gauge of
    `_batch_rhs` (sigma), smooth at 1 like u1: u1 and w are one RK45 batch
    of 2 n_lam members from 1 - t1 down to RHO_MID, and (a, b) match u0
    at RHO_MID.  On the nodes there the sums of u1 and of (1-rho)^sigma w
    are formed apart and combined once (a, b) are known.  An n_lam-wide
    run continues u1 from RHO_MID down.  Near the index resonance the
    pair is ill-conditioned: if `handoff` finds the batch in its gap, t1
    is 1 - ONE_START = 1e-3 and RK45 carries u0 to the stop point 1 - t1
    instead, where the pair is the seeds at 1 (no run), and u1 is one run
    from there.  Either way one Cramer solve matches u0 at the stop point
    in the pair.  No pair exists at |lam - 1/2| < 1e-8 or lam = 3/2, 5/2,
    ...: there IndexCollisionError is raised for points in (ONE_START, 1).

    The descent of u1 stops at r0: below it u1 ~ rho^{2-d} and
    `_origin_reduction` gives it in closed form from u0's series and
    Abel's identity.  This is the only RK45 entry of the package.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    pts = np.asarray(pts, dtype=float)
    nodes = np.asarray(() if quad is None else quad.nodes, dtype=float)
    for p in (pts, nodes):
        if len(p) and (p[0] <= 0.0 or p[-1] >= 1.0 or np.any(np.diff(p) < 0.0)):
            raise DomainError("points must be ascending in (0, 1)")
    n_lam, n_pts, n_nodes = len(lam_arr), len(pts), len(nodes)
    u0, u0p, u1, u1p = (np.empty((n_lam, n_pts), dtype=complex)
                        for _ in range(4))
    if not n_lam or not (n_pts or n_nodes):
        return u0, u0p, u1, u1p
    sig = 0.5 - lam_arr
    r0, t1, gap = handoff(lam_arr)
    one = 1.0 - t1
    stop = one if gap else RHO_MID
    so = seed_origin(d, lam_arr, variant)
    sa = seed_one(d, lam_arr, variant, "analytic")
    plain = _batch_rhs(d, lam_arr, variant)
    # initial step resolving the batch's fastest oscillation e^{a phi}
    h0 = 0.5 / (20.0 + float(np.max(np.abs(sig))))
    land = lambda rhs, x0, x_end, y0, cps, smp: _rk45.solve(
        rhs, x0, x_end, y0, rtol=rtol, atol=1e-300, checkpoints=cps,
        samples=smp, h0=h0)[:2]

    def samples(lo, hi, batch, descending, flush):
        # the nodes lo .. hi - 1 of a run, in its direction, and their sink
        if hi <= lo:
            return None
        xs = nodes[lo:hi]
        return (xs[::-1] if descending else xs, _rk45.SampleBlocks(
            lo, hi, max(1, NODE_BLOCK // batch), descending, flush))

    width = max(1, NODE_BLOCK // (2 * n_lam))   # series blocks of 2 stacks
    blocks = lambda lo, hi: ((i, nodes[i:min(i + width, hi)])
                             for i in range(lo, hi, width))
    # the zones (0, r0], (r0, stop] and (stop, 1) of pts and nodes; w, the
    # singular branch at 1, is the series past max(one, stop)
    w_lo = max(one, np.nextafter(stop, 1.0))
    p_r0, p_stop, p_one, p_w = (int(np.searchsorted(pts, x, s)) for x, s in (
        (r0, "right"), (stop, "right"), (one, "left"), (w_lo, "left")))
    q_r0, q_stop, q_w = (int(np.searchsorted(nodes, x, s)) for x, s in (
        (r0, "right"), (stop, "right"), (w_lo, "left")))
    far = p_stop < n_pts or q_stop < n_nodes   # u0 continued in the pair
    u0[:, :p_r0], u0p[:, :p_r0] = so.eval(pts[:p_r0])
    u1[:, p_one:], u1p[:, p_one:] = sa.eval(pts[p_one:])

    # u0 up from the origin series to stop
    if p_r0 < n_pts or q_r0 < n_nodes:
        x_end = stop if far else float(max(pts[p_r0:p_stop].max(initial=0.0),
                                           nodes[q_r0:q_stop].max(initial=0.0)))
        at_stop, vals = land(plain, r0, x_end, np.stack(so.eval(r0), axis=-1),
                             pts[p_r0:p_stop],
                             samples(q_r0, q_stop, n_lam, False,
                                     lambda i, v: quad.add(quad.s0, i, v)))
        u0[:, p_r0:p_stop] = vals[:, :, 0].T
        u0p[:, p_r0:p_stop] = vals[:, :, 1].T
        del vals   # freed before the next run's checkpoint values

    # u1 down from the series at 1: above RHO_MID the u_a half of the pair
    x1, y1 = one, np.stack(sa.eval(one), axis=-1)
    if far:
        # u_a and w, the singular branch in the gauge of `_batch_rhs`
        # (sig), are both Taylor series at 1; u0's columns past stop hold
        # w until (a, b) are known, and the node sums of u_a and
        # (1-rho)^sig w (s_aw) are kept apart until then
        ss = seed_one(d, lam_arr, variant, "singular")
        w_seed = FrobeniusSeed("one", np.zeros(n_lam, dtype=complex),
                               ss.coefficients)
        u0[:, p_w:], u0p[:, p_w:] = w_seed.eval(pts[p_w:])
        s_aw = None if quad is None else quad.zeros(2)
        for i, x in blocks(q_w, n_nodes):
            quad.add(s_aw, i, np.stack([sa.value(x), ss.value(x)]))
        pair_end = np.concatenate([y1, np.stack(w_seed.eval(one), axis=-1)])
        if stop < one:
            # one batch (u_a first), landing on the pts in [stop, one)
            def pair_sums(i, v):
                x = nodes[i:i + v.shape[1]]
                v[n_lam:] *= np.exp(np.multiply.outer(sig, np.log(1.0 - x)))
                quad.add(s_aw, i, v.reshape(2, n_lam, -1))

            p_up = int(np.searchsorted(pts, stop, "left"))
            pair_end, pair = land(
                _batch_rhs(d, np.tile(lam_arr, 2),
                           np.tile(np.broadcast_to(variant, lam_arr.shape), 2),
                           np.concatenate([np.zeros(n_lam, dtype=complex), sig])),
                one, stop, pair_end, pts[p_up:p_one][::-1],
                samples(q_stop, q_w, 2 * n_lam, True, pair_sums))
            n_up, n_rk = p_one - p_up, p_one - p_stop
            u1[:, p_up:p_one] = pair[:n_up, :n_lam, 0][::-1].T
            u1p[:, p_up:p_one] = pair[:n_up, :n_lam, 1][::-1].T
            u0[:, p_stop:p_one] = pair[:n_rk, n_lam:, 0][::-1].T
            u0p[:, p_stop:p_one] = pair[:n_rk, n_lam:, 1][::-1].T
            del pair
        x1, y1 = stop, pair_end[:n_lam]
        basis = (y1.T, _ungauge(sig, stop, *pair_end[n_lam:].T))
        # w becomes the singular branch in place, and the matching is done
        # in place too
        far_p = slice(p_stop, None)
        u0[:, far_p], u0p[:, far_p] = _ungauge(
            sig[:, None], pts[far_p], u0[:, far_p], u0p[:, far_p])
        a, b = _pair_coefficients(*at_stop.T, *basis)
        for u, w in ((u0, u1), (u0p, u1p)):
            u[:, far_p] *= b[:, None]
            u[:, far_p] += a[:, None] * w[:, far_p]
        if quad is not None:
            quad.s1 += s_aw[0]
            s_aw[0] *= a[:, None]
            s_aw[1] *= b[:, None]
            quad.s0 += s_aw[0]
            quad.s0 += s_aw[1]

    # u1 on down to r0, and below it by reduction of order; the descent
    # samples the nodes in (r0, x1] (x1 itself exactly, at its start)
    p_lo = int(np.searchsorted(pts, x1, "left"))
    q_lo = int(np.searchsorted(nodes, x1, "right"))
    if p_lo or q_lo:
        x_end = r0 if p_r0 or q_r0 else float(min(pts[:p_lo].min(initial=1.0),
                                                  nodes[:q_lo].min(initial=1.0)))
        star, vals = land(plain, x1, x_end, y1, pts[p_r0:p_lo][::-1],
                          samples(q_r0, q_lo, n_lam, True,
                                  lambda i, v: quad.add(quad.s1, i, v)))
        u1[:, p_r0:p_lo] = vals[:, :, 0][::-1].T
        u1p[:, p_r0:p_lo] = vals[:, :, 1][::-1].T
        del vals
    if p_r0 or q_r0:
        reduce = _origin_reduction(d, lam_arr, so, r0, star.T)
        u1[:, :p_r0], u1p[:, :p_r0] = reduce(pts[:p_r0], u0[:, :p_r0],
                                             u0p[:, :p_r0])
        for i, x in blocks(0, q_r0):
            v0 = so.value(x)
            quad.add(quad.sums, i, np.stack([v0, reduce(x, v0, v0[:, :0])[0]]))
    sums = () if quad is None else (quad.s0, quad.s1)
    if not all(np.all(np.isfinite(v)) for v in (u0, u0p, u1, u1p, *sums)):
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


def _indicator_batch(d: int, lam_arr, variant, rtol: float = 1e-9):
    """mu(lam) = W(u_origin, u_analytic-at-1)(RHO_MID) for an array of lam,
    with variant one name or one per lam.

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
    dense enough that arg increments stay below ~0.8.  ev maps the n
    points of an array to n values, or to (k, n) values of k functions
    sharing the polyline, which then refines wherever any of them fails.

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
    vals = np.concatenate([vals, vals[..., :1]], axis=-1)
    for depth in range(EDGE_MAX_DEPTH + 1):
        if np.any(vals == 0):
            raise ContourTooCloseError(
                f"zero sample at {pts[np.nonzero(vals == 0)[-1][0]]}")
        r = vals[..., 1:] / vals[..., :-1]
        fails = ((np.abs(np.angle(r)) > 0.8)
                 | ~((0.25 < np.abs(r)) & (np.abs(r) < 4.0)))
        bad = np.flatnonzero(fails.reshape(-1, len(pts) - 1).any(axis=0))
        if not len(bad):
            return pts, vals
        if depth == EDGE_MAX_DEPTH:
            raise ContourTooCloseError(
                f"boundary of {rect} not resolved after {depth} refinements")
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, ev(mids), axis=-1)


def _winding_rect(ev, rect):
    """(w, estimates): winding number of f around the rectangle (re0,
    re1, im0, im1) and its w roots, from one traced boundary; a list of
    them, one per function, for an ev of k functions (`_trace_boundary`).

    Delves & Lyness: the power sums s_k = (1/2 pi i) oint z^k dlog f, by
    the midpoint rule on the ratios vals[i+1]/vals[i] whose phases give w,
    are the roots' monic polynomial through the Newton identities.
    """
    pts, vals = _trace_boundary(ev, rect)
    mids = 0.5 * (pts[1:] + pts[:-1])
    wound = []
    for v in np.atleast_2d(vals):
        logs = np.log(v[1:] / v[:-1])
        w = np.sum(logs.imag) / (2.0 * math.pi)
        if abs(w - round(w)) > 0.25:
            raise ContourTooCloseError(f"non-integer winding {w:.3f} on {rect}")
        w = int(round(w))
        s = [np.sum(mids**k * logs) / (2j * math.pi) for k in range(w + 1)]
        c = [1.0]  # the roots' monic polynomial, by the Newton identities
        for k in range(1, w + 1):
            c.append(-sum(c[i] * s[k - i] for i in range(k)) / k)
        wound.append((w, np.roots(c)))
    return wound if vals.ndim == 2 else wound[0]


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


def scan_halfplane(d: int, variant, omega_max: float = 50.0,
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
    variant is one name, or a tuple of names scanned in lockstep: one
    polyline, refined wherever any variant fails, whose rounds are each
    one batch of all the variants' lam, then one winding count, estimate
    set and polish per variant; a retry moves the window for all of them.

    Returns a list of (root, multiplicity), sorted by real part
    descending; for a tuple of variants, one such list per variant.
    """
    if not 0.0 <= omega_max <= 60.0:
        raise DomainError("omega_max must be in [0, 60]")
    names = (variant,) if isinstance(variant, str) else tuple(variant)
    if method == "shooting":
        batch = lambda arr: _indicator_batch(
            d, np.tile(arr, len(names)), np.repeat(names, len(arr)),
            rtol=TRACE_RTOL).reshape(len(names), len(arr))
        polish = [lambda arr, v=v: eigen_indicator(d, arr, v, rtol=1e-10)[0]
                  for v in names]
    elif method == "c3":
        polish = [lambda arr, v=v: c3_connection(d, arr, v) for v in names]
        batch = lambda arr: np.array([p(arr) for p in polish])
    else:
        raise ParamError(f"unknown method {method!r}")

    for attempt in range(3):
        rect = (0.0, 2.0, -1.0 - 0.37 * attempt, omega_max + 0.5)
        try:
            found = [_polish_band(p, rect, est) for p, (_, est)
                     in zip(polish, _winding_rect(batch, rect))]
            break
        except ContourTooCloseError:
            if attempt == 2:
                raise
    out = [[] for _ in names]
    for roots, kept in zip(found, out):
        # mirror complex roots (real lam-coefficients), then dedup
        for z, w in roots:
            pair = ((complex(z.real, 0.0),) if abs(z.imag) < 1e-9
                    else (z, z.conjugate()))
            for z in pair:
                if -omega_max <= z.imag <= omega_max and not any(
                        abs(z - z2) < 1e-6 for z2, _ in kept):
                    kept.append((z, w))
        kept.sort(key=lambda t: (-t[0].real, t[0].imag))
    return out[0] if isinstance(variant, str) else out
