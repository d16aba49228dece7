"""Frobenius series of the spectral ODE at its regular singular endpoints.

The ODE of `radialode` has Frobenius indices {0, (2-d)/2} at rho = 0 and
{0, 1/2 - lam} at rho = 1.  `seed_origin` gives the index-0 (regular)
series at 0 and `seed_one` the analytic or singular series at 1, each
for a whole batch of lam; they seed RK45 and cover the seed gaps
[0, ORIGIN_START] and [ONE_START, 1).  `reduction_series` gives the
series that continues the second solution below ORIGIN_START by
reduction of order on the regular one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexCollisionError, ParamError
from .model import check_dimension

ORIGIN_START = 1e-3      # RK45 starts and ends here (closed forms below)
ONE_START = 1.0 - 1e-3
SEED_ORDER = 8


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

    def eval(self, rho):
        """(u, du/drho) at rho (scalar or array), shape (n_lam,) + rho.shape,
        from the truncated series by Horner over the coefficient axis."""
        rho = np.asarray(rho, dtype=float)
        # column k broadcasts against rho: b[k] has shape (n_lam, 1, ...)
        b = self.coefficients.T.reshape(
            self.coefficients.shape[::-1] + (1,) * rho.ndim)
        zero = np.zeros(b.shape[1:2] + rho.shape, dtype=complex)
        if self.endpoint == "origin":
            u = up = zero
            r2 = rho * rho
            for k in range(len(b) - 1, 0, -1):
                u = u * r2 + b[k]
                up = up * r2 + 2 * k * b[k]
            u = u * r2 + b[0]
            return u, up * rho
        x = 1.0 - rho
        s = sp = zero
        for k in range(len(b) - 1, 1, -1):
            s = s * x + b[k]
            sp = sp * x + k * b[k]
        s = s * x + b[1]
        sp = sp * x + b[1]
        s = s * x + b[0]
        if not np.any(self.index):
            return s, -sp
        sig = self.index.reshape(b.shape[1:])
        xs = np.exp(sig * np.log(x))
        return xs * s, -(xs * (sp + sig * s / x))


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


def reduction_series(lam_arr, seed):
    """(n_lam, K) coefficients h_k of h(t) = (1-t)^{-1/2-lam} / U(t)^2,
    U(t) = sum_k a_k t^k the origin series (u0 = U(rho^2)), truncated by
    `_series`: the binomial series divided by the Cauchy square of U."""
    a = seed.coefficients
    n_a = a.shape[1]
    binom, square = [np.ones(len(lam_arr), dtype=complex)], []

    def next_coeff(m, h, active):
        n = m + 1
        binom.append(binom[-1] * (m + 0.5 + lam_arr) / n)
        i = np.arange(max(0, n - n_a + 1), min(n, n_a - 1) + 1)
        square.append(np.sum(a[:, i] * a[:, n - i], axis=1))   # [U^2]_n
        return binom[-1] - sum(square[j - 1] * h[n - j] for j in range(1, n + 1))

    return _series(len(lam_arr), next_coeff, ORIGIN_START, 2)
