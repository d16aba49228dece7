"""Batched adaptive Dormand-Prince RK45 with checkpoint landing and
value-only samples.

The spectral ODEs are integrated for many spectral parameters at once:
the state has shape (batch, n) and a single step size is controlled by
the worst batch member; every RHS call is one (batch, n) state at one
scalar abscissa.  Two kinds of output point follow two rules.  A
checkpoint (a point where the whole state is read) is a point the steps
land on: a step that would pass the next checkpoint is clipped onto it,
and after a clipped step the controller resumes from the step it
proposed before clipping.  Checkpoints at x0 are recorded before the
first step.  A sample is a point where only u of a second-order problem
y = (u, u') is read (the resolvent's quadrature nodes): it never clips a
step, and is filled on the accepted step that covers it from the quintic
Hermite through (u, u', u'') at the step's two ends, whose f = (u', u'')
are its stages 0 and 6 (FSAL).  A batch of m samples is one (m, 6) by
(6, batch) product and no RHS call.  The seven stages of a step live in
one (7, batch, n) buffer: each stage increment and the error estimate is
one real matrix product of a row of the h-scaled tableau, formed once
per attempt, with the buffer's float view.  Beside its six RHS calls an
attempt makes only the numpy calls its arithmetic needs: the error norm
takes member maxima with elementwise np.maximum over the component
columns, where a reduction over a length-2 axis costs over ten times as
much, and samples are found by bisect on a list.

A samples out may be a `SampleBlocks`, which hands the samples over in
blocks as they come, so that a caller reducing them (the resolvent's
panel sums) never holds all of them.

Dense output (the same quintic Hermite on the accepted steps, ~2e-10
relative) has no conewave caller; it stays because the benchmark's
self-test (conebench) drives it.
"""

import bisect

import numpy as np

from .errors import DomainError, StepFailure

# lower-triangular stage matrix; row i forms stage i from stages 0..i-1,
# row 6 holds the 5th-order weights (FSAL) and row 7 the error weights
_A = np.array([row + (0.0,) * (7 - len(row)) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)])
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_AE = np.vstack([_A, _A[6] - np.array(_B4)])

_MAX_STEPS = 2_000_000


# the quintic Hermite basis on theta in [0, 1]: column k holds the
# coefficients of theta^0..theta^5 of the polynomial that multiplies
# (u_a, u'_a, u''_a, u_b, u'_b, u''_b)[k] times h^_H_POWER[0][k]
_HERMITE = np.array([
    (1.0, 0.0, 0.0, -10.0, 15.0, -6.0),
    (0.0, 1.0, 0.0, -6.0, 8.0, -3.0),
    (0.0, 0.0, 0.5, -1.5, 1.5, -0.5),
    (0.0, 0.0, 0.0, 10.0, -15.0, 6.0),
    (0.0, 0.0, 0.0, -4.0, 7.0, -3.0),
    (0.0, 0.0, 0.0, 0.5, -1.0, 0.5),
]).T
# the basis of u (index 0) and of u' (index 1, d/dtheta over h), in the
# same powers of theta
_BASIS = (_HERMITE, np.vstack([_HERMITE[1:] * np.arange(1.0, 6.0)[:, None],
                               np.zeros((1, 6))]))
_H_POWER = (np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
            np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]))
_THETA_POWER = np.arange(6.0)


def _hermite(theta, h, deriv):
    """(m, 6) matrix whose row i, applied to (u_a, u'_a, u''_a, u_b, u'_b,
    u''_b) of a step from x_a of length h (a scalar or one per row), gives
    u (deriv 0) or u' (deriv 1) at x_a + theta[i] h."""
    h = np.asarray(h, dtype=float)[..., None]
    return (theta[:, None] ** _THETA_POWER) @ _BASIS[deriv] * h ** _H_POWER[deriv]


class DenseSegments:
    """Accepted RK45 steps with endpoint (y, y') data for quintic Hermite."""

    __slots__ = ("xa", "xb", "ya", "fa", "yb", "fb", "ascending")

    def __init__(self, xa, xb, ya, fa, yb, fb):
        self.xa = np.asarray(xa)
        self.xb = np.asarray(xb)
        self.ya = np.asarray(ya)
        self.fa = np.asarray(fa)
        self.yb = np.asarray(yb)
        self.fb = np.asarray(fb)
        self.ascending = bool(self.xb[-1] > self.xa[0]) if len(self.xa) else True

    def __call__(self, x):
        """Evaluate (u, u') at points x; components are first state entries.

        Only meaningful for second-order problems written as y = (u, u'):
        the quintic Hermite uses (u, u', u'') at both segment ends and its
        derivative reproduces u' to the same order.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.ascending:
            idx = np.searchsorted(self.xb, x, side="left")
        else:
            idx = np.searchsorted(-self.xb, -x, side="left")
        idx = np.clip(idx, 0, len(self.xa) - 1)
        xa = self.xa[idx]
        h = self.xb[idx] - xa
        th = (x - xa) / h
        data = np.stack([self.ya[idx, 0], self.ya[idx, 1], self.fa[idx, 1],
                         self.yb[idx, 0], self.yb[idx, 1], self.fb[idx, 1]],
                        axis=-1)
        return tuple((_hermite(th, h, deriv) * data).sum(axis=-1)
                     for deriv in (0, 1))


class SampleBlocks:
    """A samples out for `solve` that hands the samples over in blocks
    instead of holding them all.  `solve` assigns rows, out[i:j] = u with
    u (j - i, batch), in its run's order and without gaps (or one row for
    all at zero span).  Once width of them have come, or the run's last,
    they go to flush(first, v) with v (batch, m) on the points first ..
    first + m - 1 of an ascending numbering in which the run's points are
    lo .. hi - 1; flush may overwrite v."""

    def __init__(self, lo, hi, width, descending, flush):
        self.lo, self.n, self.width = lo, hi - lo, width
        self.descending, self.flush = descending, flush
        self.rows, self.held, self.done = [], 0, 0

    def __setitem__(self, key, u):
        i, j, _ = key.indices(self.n)
        self.rows.append(np.broadcast_to(u, (j - i, len(u))) if u.ndim == 1
                         else u)
        self.held += j - i
        if self.held < self.width and j < self.n:
            return
        if self.descending:
            rows = [r[::-1].T for r in reversed(self.rows)]
            first = self.n - self.done - self.held
        else:
            rows = [r.T for r in self.rows]
            first = self.done
        v = np.concatenate(rows, axis=1)
        self.flush(self.lo + first, v)
        self.rows, self.done, self.held = [], self.done + self.held, 0


def _hermite_samples(xs, x, h, y, ka, yb, kb):
    """u at the m points xs of the accepted step from (x, y, ka = f(x, y))
    to (x + h, yb, kb) of a (batch, 2) state y = (u, u'): one real (m, 6)
    by (6, 2 batch) product, no RHS call."""
    data = np.empty((6, len(y)), dtype=complex)
    data[:2], data[2], data[3:5], data[5] = y.T, ka[:, 1], yb.T, kb[:, 1]
    return (_hermite((xs - x) / h, h, 0) @ data.view(float)).view(complex)


def _member_max(a):
    """Elementwise max over the last axis of a (batch, n) array by n - 1
    np.maximum calls on the columns: ~2 us at batch 374 and n = 2, where
    .max(axis=-1) takes ~28 us."""
    m = a[..., 0]
    for k in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., k])
    return m


def _toward(points, direction, x0, x_end):
    """direction * points as an ascending list; DomainError unless they lie
    in [x0, x_end], monotone toward x_end."""
    t = direction * points
    if len(t) and not (direction * x0 <= t[0] and t[-1] <= direction * x_end
                       and np.all(np.diff(t) >= 0.0)):
        raise DomainError("checkpoints and samples must lie in [x0, x_end], "
                          "monotone toward x_end")
    return t.tolist()


def _record(toward, cp_vals, next_cp, direction, x, y):
    """Record y at the checkpoints from next_cp on that x has reached, to
    within the rounding of a step onto them; returns the index of the first
    one not reached.  toward[i] - direction * x is direction * (cp - x)
    exactly: negation commutes with rounding."""
    tol = 1e-15 * max(1.0, abs(x))
    while next_cp < len(toward) and toward[next_cp] - direction * x <= tol:
        cp_vals[next_cp] = y
        next_cp += 1
    return next_cp


def solve(f, x0, x_end, y0, rtol=1e-10, atol=1e-12, checkpoints=None,
          samples=None, dense=False, h0=None, max_steps=_MAX_STEPS):
    """Integrate y' = f(x, y) from x0 to x_end.

    Parameters
    ----------
    f : callable(x, y) -> array like y, vectorized over the batch axis;
        x is a scalar.
    y0 : array (batch, n) or (n,).
    checkpoints : optional array of x values in [x0, x_end], monotone
        toward x_end (DomainError otherwise, before any step); a step that
        would pass the next one is clipped onto it, so the steps land on
        each, and the state is recorded there (at x0 before the first
        step).
    samples : optional pair (xs, out) for a state y = (u, u'): points xs
        under the same rule as checkpoints, and an array out of shape
        (len(xs), batch) that receives u at each.  Samples never shorten
        a step: each is filled from the quintic Hermite of the accepted
        step that covers it.
    dense : keep all accepted steps for later Hermite evaluation.

    The error norm is the max over members of max_k |err_k| / (atol +
    rtol max(max_k |y_k|, max_k |y5_k|)): the components of one member
    share a scale, so zero crossings of oscillatory components stay
    benign.  Division by a member's one positive scale is monotone, so
    |err| is reduced over the components before it is divided, and the
    member max of |y5| is carried to the next step as that of |y|.

    Returns
    -------
    y_end, checkpoint_values (or None), DenseSegments (or None)
    """
    y = np.atleast_2d(np.asarray(y0, dtype=complex))
    direction = 1.0 if x_end >= x0 else -1.0
    span = abs(x_end - x0)
    toward, cp_vals = [], None
    if checkpoints is not None:
        toward = _toward(np.asarray(checkpoints, dtype=float), direction,
                         x0, x_end)
        cp_vals = np.empty((len(toward),) + y.shape, dtype=complex)
    s_xs = s_toward = s_out = None
    if samples is not None:
        s_xs, s_out = np.asarray(samples[0], dtype=float), samples[1]
        s_toward = _toward(s_xs, direction, x0, x_end)
    next_cp = _record(toward, cp_vals, 0, direction, x0, y)
    if span == 0.0:
        if s_out is not None:
            s_out[:] = y[:, 0]
        return y, cp_vals, None

    if h0 is None:
        h0 = span / 100.0
    h = direction * min(abs(h0), span)

    x = x0
    shape = y.shape
    stages = np.empty((7,) + shape, dtype=complex)
    flat = stages.view(float).reshape(7, -1)
    stages[0] = f(x, y)
    mag_y = _member_max(np.abs(y))
    seg_xa, seg_xb, seg_ya, seg_fa, seg_yb, seg_fb = [], [], [], [], [], []
    hmin = 1e-14 * max(1.0, abs(x0), abs(x_end))
    next_s = 0
    n_steps = 0
    while direction * (x_end - x) > 0:
        n_steps += 1
        if n_steps > max_steps:
            raise StepFailure(f"step budget exceeded ({max_steps})")
        if abs(h) < hmin:
            raise StepFailure(f"step size underflow at x={x}")
        # clip onto the next checkpoint, else onto the endpoint
        x_stop = direction * toward[next_cp] if next_cp < len(toward) else x_end
        h_free = h
        clipped = direction * (x + h - x_stop) > 0
        if clipped:
            h = x_stop - x

        hA = h * _AE
        for i in range(1, 7):
            y5 = y + (hA[i, :i] @ flat[:i]).view(complex).reshape(shape)
            stages[i] = f(x + _C[i] * h, y5)
        # y5 is now the stage 7 state, the 5th-order solution (FSAL)
        err = (hA[7] @ flat).view(complex).reshape(shape)
        mag_y5 = _member_max(np.abs(y5))
        scale = atol + rtol * np.maximum(mag_y, mag_y5)
        emax = (_member_max(np.abs(err)) / scale).max()

        if emax <= 1.0:
            if dense:
                seg_xa.append(x)
                seg_xb.append(x + h)
                seg_ya.append(y[0].copy())
                seg_fa.append(stages[0, 0].copy())
                seg_yb.append(y5[0].copy())
                seg_fb.append(stages[6, 0].copy())
            if s_toward is not None:
                # the samples up to x + h, rounding of x + h included
                tol = 1e-15 * max(1.0, abs(x + h))
                last = bisect.bisect_right(s_toward, direction * (x + h) + tol)
                if last > next_s:
                    s_out[next_s:last] = _hermite_samples(
                        s_xs[next_s:last], x, h, y, stages[0], y5, stages[6])
                    next_s = last
            x = x + h
            y, mag_y = y5, mag_y5
            stages[0] = stages[6]
            next_cp = _record(toward, cp_vals, next_cp, direction, x, y)
            fac = 2.0 if emax == 0.0 else min(2.0, max(0.25, 0.9 * emax ** -0.2))
            h = h * fac
            if clipped:
                # a step shortened onto a checkpoint says nothing about the
                # controller's step; resume from the step it had proposed
                h = direction * max(abs(h_free), abs(h))
        else:
            h = h * max(0.1, 0.9 * emax ** -0.2)

    segments = None
    if dense:
        segments = DenseSegments(
            np.array(seg_xa), np.array(seg_xb),
            np.array(seg_ya), np.array(seg_fa),
            np.array(seg_yb), np.array(seg_fb),
        )
    return y, cp_vals, segments
