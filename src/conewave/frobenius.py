"""Frobenius series of the spectral ODE at its regular singular endpoints.

The ODE of `radialode` has Frobenius indices {0, (2-d)/2} at rho = 0 and
{0, 1/2 - lam} at rho = 1.  `seed_origin` gives the index-0 (regular)
series at 0 and `seed_one` the analytic or singular series at 1, each
for a whole batch of lam; they seed RK45 and cover the series zones
[0, r0] and [1 - t1, 1), whose widths `handoff` sets once per batch from
its largest |lam| and its distance to the index resonance; the seeds are
truncated there.  `reduction_series` gives the series that continues
the second solution below r0 by reduction of order on the regular one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexCollisionError, ParamError, QuadratureError
from .model import check_dimension

ORIGIN_START = 1e-3      # the nearest handoffs to each endpoint
ONE_START = 1.0 - 1e-3
SEED_ORDER = 8
MAX_ORDER = 80
# Handoff scales: the series cover [0, r0] and [1 - t1, 1), r0 and t1 =
# ORIGIN_SCALE and ONE_SCALE over the batch's max|lam|, clipped to the
# nearest handoffs and 0.1: next to 1 RK45 is held to h <~ 3 (1-rho) /
# |2 lam + 1|.  Measured at d 3..6, |lam| <= 400: at ORIGIN_SCALE
# `reduction_series` stays inside its radius (u0's first zero lies at
# rho >= pi/|lam|: ratio <= 0.23 in rho^2), <= 31 terms (51 at 2,
# divergent at 2.5).  At ONE_SCALE the analytic series at 1 cancels by
# sum |terms| / |sum| <= 19 ~ e^3 (372 at 12, for 3% fewer steps).
# Seeds at the handoffs lie within 3.3e-13 of an rtol 1e-13 RK45 run
# from the nearest handoffs.
ORIGIN_SCALE = 1.5
ONE_SCALE = 6.0
# dist(1/2 - lam, Z) below which the origin-regular solution is not
# continued from `radialode.RHO_MID` in the gauge pair at 1: at rtol
# 1e-10 that pair loses ~4e-12 / dist relative to a direct rtol 1e-13
# solve (measured at lam = 3/2 and 5/2, real and imaginary offsets, d 4),
# so 5e-3 keeps it below 1e-9.  Such a batch keeps t1 = 1 - ONE_START.
INDEX_GAP = 5e-3


def handoff(lam_arr):
    """(r0, t1, gap): a batch's series cover [0, r0] and [1 - t1, 1); gap
    if one of its lam lies within INDEX_GAP of the index resonance."""
    lam = np.asarray(lam_arr, dtype=complex)
    top = max(float(np.max(np.abs(lam), initial=0.0)), 1e-300)
    sig = 0.5 - lam
    gap = bool(np.min(np.abs(sig - np.round(sig.real)), initial=1.0) < INDEX_GAP)
    t1 = 1.0 - ONE_START if gap else np.clip(ONE_SCALE / top, 1.0 - ONE_START, 0.1)
    return float(np.clip(ORIGIN_SCALE / top, ORIGIN_START, 0.1)), float(t1), gap


def zero_order_coeff(d: int, lam, variant):
    """c0(lam) for a scalar or an array of lam; variant is one name or an
    array of names that broadcasts against lam."""
    check_dimension(d)
    lam = np.asarray(lam, dtype=complex)
    names = np.asarray(variant)
    known = (names == "free") | (names == "perturbed")
    if not np.all(known):
        raise ParamError(f"unknown variant {str(names[~known].flat[0])!r}")
    base = lam * (lam + d - 1.0)
    # d(d-2)/4 - model.potential_constant(d) = -d, folded into c0
    return np.where(names == "free", base + d * (d - 2.0) / 4.0, base - d)


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

    def value(self, rho):
        """u on the 1-D rho, (n_lam, n): the product of the coefficients
        with the powers of rho^2 (origin) or of x = 1 - rho (one)."""
        c = self.coefficients
        x = rho * rho if self.endpoint == "origin" else 1.0 - rho
        u = c @ (x ** np.arange(c.shape[1])[:, None])
        if self.endpoint == "one" and np.any(self.index):
            u *= np.exp(self.index[:, None] * np.log(x))
        return u

    def eval(self, rho):
        """(u, du/drho) at rho (scalar or array), shape (n_lam,) + rho.shape:
        u from `value`, du as a second product with the powers of x."""
        rho = np.asarray(rho, dtype=float)
        r = rho.reshape(-1)
        c = self.coefficients
        u = self.value(r)
        k = np.arange(1, c.shape[1])[:, None]
        if self.endpoint == "origin":
            du = (c[:, 1:] @ (k * (r * r) ** (k - 1))) * (2.0 * r)
        else:
            # u = x^sig U(x), x = 1 - rho: du/drho = -(x^sig U' + sig u / x)
            x, sig = 1.0 - r, self.index[:, None]
            du = -((c[:, 1:] @ (k * x ** (k - 1))) * np.exp(sig * np.log(x))
                   + sig * u / x)
        return tuple(a.reshape((len(c),) + rho.shape) for a in (u, du))


def _series(n_lam, next_coeff, x0, power):
    """(n_lam, K) coefficients c_0 = 1, c_{m+1} = next_coeff(m, cs, active).

    Each member takes at least SEED_ORDER steps and stops once its last
    coefficient is below 1e-17 at x0 (|c_m| x0^{power m}); its
    coefficients above its own stopping order are zero.  A member that
    has not stopped at MAX_ORDER raises QuadratureError.
    """
    cs = [np.ones(n_lam, dtype=complex)]
    active = np.ones(n_lam, dtype=bool)
    # past its radius a member overflows; it stays active (below) and
    # reaches the order cap, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(MAX_ORDER + 1):
            if m >= SEED_ORDER:
                # a non-finite coefficient keeps its member active
                active &= ~(np.abs(cs[-1]) * x0 ** (power * m) <= 1e-17)
                if not active.any():
                    return np.stack(cs, axis=1)
            if m == MAX_ORDER:
                raise QuadratureError(
                    f"Frobenius series not converged at order {m} "
                    f"at {x0:.3g}")
            cs.append(np.where(active, next_coeff(m, cs, active), 0.0))


def seed_origin(d: int, lam_arr, variant: str) -> FrobeniusSeed:
    """Index-0 even series at rho=0 for each lam: a_{k+1}/a_k from the ODE
    recurrence, truncated at the batch's `handoff` r0."""
    lam = np.asarray(lam_arr, dtype=complex)
    c0 = zero_order_coeff(d, lam, variant)

    def next_coeff(k, a, active):
        num = 4.0 * k * k + 2.0 * k * (2.0 * lam + d - 1.0) + c0
        return a[-1] * num / ((2.0 * k + 2.0) * (2.0 * k + d))

    coeffs = _series(len(lam), next_coeff, handoff(lam)[0], 2)
    return FrobeniusSeed("origin", np.zeros(len(lam), dtype=complex), coeffs)


def seed_one(d: int, lam_arr, variant: str, branch: str) -> FrobeniusSeed:
    """Frobenius series at rho=1 for each lam; indices {0, 1/2-lam},
    truncated at the batch's `handoff` x = t1.

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

    coeffs = _series(len(lam), next_coeff, handoff(lam)[1], 1)
    return FrobeniusSeed("one", sig, coeffs)


def reduction_series(lam_arr, seed, r0):
    """(n_lam, K) coefficients h_k of h(t) = (1-t)^{-1/2-lam} / U(t)^2,
    U(t) = sum_k a_k t^k the origin series (u0 = U(rho^2)), truncated by
    `_series` at rho = r0: the binomial series divided by the Cauchy
    square of U."""
    a = seed.coefficients
    n_a = a.shape[1]
    binom, square = [np.ones(len(lam_arr), dtype=complex)], []

    def next_coeff(m, h, active):
        n = m + 1
        binom.append(binom[-1] * (m + 0.5 + lam_arr) / n)
        i = np.arange(max(0, n - n_a + 1), min(n, n_a - 1) + 1)
        square.append(np.sum(a[:, i] * a[:, n - i], axis=1))   # [U^2]_n
        return binom[-1] - sum(square[j - 1] * h[n - j] for j in range(1, n + 1))

    return _series(len(lam_arr), next_coeff, r0, 2)
