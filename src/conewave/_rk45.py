"""Batched adaptive Dormand-Prince RK45 with checkpoint landing.

The spectral ODEs are integrated for many spectral parameters at once:
the state has shape (batch, n) and a single step size is controlled by
the worst batch member.  A step is clipped onto the last checkpoint
(quadrature node, output grid point) it reaches; the checkpoints it
passed get their values from one batched RK5 sub-step from its start, no
longer than the step and so no less accurate (after a clipped step the
controller resumes from the step it proposed before clipping).  The
seven stages of a step live in one (7, batch, n) buffer: each stage
increment and the error estimate is one real matrix product of an
h-scaled tableau row with the buffer's float view.  Dense output
(quintic Hermite on the accepted steps, ~2e-10 relative) has no conewave
caller; it stays because the benchmark's self-test (conebench) drives it.
"""

import numpy as np

from .errors import StepFailure

# lower-triangular stage matrix; its last row holds the 5th-order
# weights (FSAL), and _ROWS[i] forms stage i from stages 0..i-1
_A = np.array([row + (0.0,) * (7 - len(row)) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)])
_ROWS = tuple(_A[i, :i] for i in range(7))
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = _A[6] - np.array(_B4)

_MAX_STEPS = 2_000_000


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
        u_a, du_a = self.ya[idx, 0], self.ya[idx, 1]
        d2u_a = self.fa[idx, 1]
        u_b, du_b = self.yb[idx, 0], self.yb[idx, 1]
        d2u_b = self.fb[idx, 1]

        t2 = th * th
        t3 = t2 * th
        t4 = t3 * th
        t5 = t4 * th
        h00 = 1 - 10 * t3 + 15 * t4 - 6 * t5
        h01 = th - 6 * t3 + 8 * t4 - 3 * t5
        h02 = 0.5 * (t2 - 3 * t3 + 3 * t4 - t5)
        h10 = 10 * t3 - 15 * t4 + 6 * t5
        h11 = -4 * t3 + 7 * t4 - 3 * t5
        h12 = 0.5 * (t3 - 2 * t4 + t5)
        u = (
            h00 * u_a + h01 * h * du_a + h02 * h * h * d2u_a
            + h10 * u_b + h11 * h * du_b + h12 * h * h * d2u_b
        )
        d00 = -30 * t2 + 60 * t3 - 30 * t4
        d01 = 1 - 18 * t2 + 32 * t3 - 15 * t4
        d02 = 0.5 * (2 * th - 9 * t2 + 12 * t3 - 5 * t4)
        d10 = 30 * t2 - 60 * t3 + 30 * t4
        d11 = -12 * t2 + 28 * t3 - 15 * t4
        d12 = 0.5 * (3 * t2 - 8 * t3 + 5 * t4)
        du = (
            d00 * u_a / h + d01 * du_a + d02 * h * d2u_a
            + d10 * u_b / h + d11 * du_b + d12 * h * d2u_b
        )
        return u, du


def _substep(f, x, y, k1, xs):
    """RK5 values at the m points xs from the accepted state (x, y, k1):
    one (m, batch, n) state with step xs - x per row and abscissae of shape
    (m, 1); the value needs no FSAL stage, so this is five RHS calls."""
    h = (xs - x)[:, None]
    shape = (len(xs),) + y.shape
    stages = np.empty((6,) + shape, dtype=complex)
    flat = stages.view(float).reshape(6, -1)
    stages[0] = k1
    for i in range(1, 6):
        incr = (_ROWS[i] @ flat[:i]).view(complex).reshape(shape)
        stages[i] = f(x + _C[i] * h, y + h[..., None] * incr)
    return y + h[..., None] * (_A[6, :6] @ flat).view(complex).reshape(shape)


def solve(f, x0, x_end, y0, rtol=1e-10, atol=1e-12, checkpoints=None,
          dense=False, h0=None, max_steps=_MAX_STEPS):
    """Integrate y' = f(x, y) from x0 to x_end.

    Parameters
    ----------
    f : callable(x, y) -> array like y, vectorized over the batch axis.
        For a sub-step batch it is called with x of shape (m, 1) and y of
        shape (m, batch, n); x broadcasts against each component y[..., k].
    y0 : array (batch, n) or (n,).
    checkpoints : optional sorted array of x values (monotone toward x_end);
        a step lands on the last one it reaches, `_substep` fills the ones
        it passed, and the state is recorded at each.
    dense : keep all accepted steps for later Hermite evaluation.

    Returns
    -------
    y_end, checkpoint_values (or None), DenseSegments (or None)
    """
    y = np.atleast_2d(np.asarray(y0, dtype=complex))
    direction = 1.0 if x_end >= x0 else -1.0
    span = abs(x_end - x0)
    if span == 0.0:
        cp = None
        if checkpoints is not None:
            cp = np.repeat(y[None, :, :], len(checkpoints), axis=0)
        return y, cp, None

    cps = None
    cp_vals = None
    next_cp = 0
    if checkpoints is not None:
        cps = np.asarray(checkpoints, dtype=float)
        toward = direction * cps  # ascending
        cp_vals = np.empty((len(cps),) + y.shape, dtype=complex)

    if h0 is None:
        h0 = span / 100.0
    h = direction * min(abs(h0), span)

    x = x0
    stages = np.empty((7,) + y.shape, dtype=complex)
    flat = stages.view(float).reshape(7, -1)
    stages[0] = f(x, y)
    abs_y = np.abs(y)
    seg_xa, seg_xb, seg_ya, seg_fa, seg_yb, seg_fb = [], [], [], [], [], []
    hmin = 1e-14 * max(1.0, abs(x0), abs(x_end))
    n_steps = 0
    while direction * (x_end - x) > 0:
        n_steps += 1
        if n_steps > max_steps:
            raise StepFailure(f"step budget exceeded ({max_steps})")
        if abs(h) < hmin:
            raise StepFailure(f"step size underflow at x={x}")
        # clip onto the last checkpoint reached, else onto the endpoint;
        # the passed checkpoints [next_cp, first) are sub-stepped
        x_stop, first = x_end, next_cp
        if cps is not None:
            last = np.searchsorted(toward, direction * (x + h), side="right")
            if last > next_cp:
                x_stop = cps[last - 1]
                first = np.searchsorted(toward, toward[last - 1])
        h_free = h
        clipped = direction * (x + h - x_stop) > 0
        if clipped:
            h = x_stop - x

        for i in range(1, 7):
            incr = ((h * _ROWS[i]) @ flat[:i]).view(complex).reshape(y.shape)
            y5 = y + incr
            stages[i] = f(x + _C[i] * h, y5)
        # y5 is now the stage 7 state, the 5th-order solution (FSAL)
        err = ((h * _E) @ flat).view(complex).reshape(y.shape)
        # member-wise sup scale: components of one batch member share a
        # scale so zero crossings of oscillatory components stay benign
        abs_y5 = np.abs(y5)
        mag = np.maximum(abs_y, abs_y5).max(axis=-1, keepdims=True)
        scale = atol + rtol * mag
        emax = np.max(np.abs(err) / scale)

        if emax <= 1.0:
            if dense:
                seg_xa.append(x)
                seg_xb.append(x + h)
                seg_ya.append(y[0].copy())
                seg_fa.append(stages[0, 0].copy())
                seg_yb.append(y5[0].copy())
                seg_fb.append(stages[6, 0].copy())
            if first > next_cp:
                cp_vals[next_cp:first] = _substep(f, x, y, stages[0],
                                                  cps[next_cp:first])
                next_cp = first
            x = x + h
            y, abs_y = y5, abs_y5
            stages[0] = stages[6]
            if cps is not None:
                while next_cp < len(cps) and direction * (cps[next_cp] - x) <= 1e-15 * max(1.0, abs(x)):
                    cp_vals[next_cp] = y
                    next_cp += 1
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
