"""Blowup family, similarity coordinates, nonlinearity, Strichartz pairs.

The focusing energy-critical radial wave equation
(d_t^2 - d_r^2 - (d-1)/r d_r) u = u |u|^{4/(d-2)} has the space-independent
blowup family u^T(t) = c_d (T-t)^{(2-d)/2}.  Similarity coordinates

    rho = r / (T - t),    tau = -log(T - t) + log T

map the backward lightcone Gamma_T onto the cylinder [0, inf) x [0, 1],
and psi(tau, rho) = (T e^{-tau})^{(d-2)/2} u(T - T e^{-tau}, T e^{-tau} rho)
turns u^T into the constant c_d.
"""

import functools
import math

import numpy as np

from .errors import DomainError

NONLINEAR_D_MAX = 6  # power nonlinearity handled via Lp-Lq bounds only below 7


def check_dimension(d: int, nonlinear: bool = False) -> int:
    if int(d) != d or d < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {d}")
    if nonlinear and d > NONLINEAR_D_MAX:
        raise DomainError(f"nonlinear features require 3 <= d <= 6, got {d}")
    return int(d)


def c_d(d: int) -> float:
    """Blowup amplitude (d(d-2)/4)^{(d-2)/4}."""
    check_dimension(d)
    return (d * (d - 2) / 4.0) ** ((d - 2) / 4.0)


def ode_blowup(d: int, T: float, t) -> float:
    """u^T(t) = c_d (T-t)^{(2-d)/2}; independent of r."""
    check_dimension(d)
    t = np.asarray(t, dtype=float)
    if np.any(t >= T):
        raise DomainError("blowup profile defined for t < T only")
    return c_d(d) * (T - t) ** ((2.0 - d) / 2.0)


def sphere_area(d: int) -> float:
    """|S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)."""
    check_dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# similarity coordinates
# ---------------------------------------------------------------------------


def to_similarity(T: float, t, r):
    """(t, r) in the backward lightcone -> (tau, rho)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t < 0) or np.any(t >= T) or np.any(r < 0) or np.any(r > T - t):
        raise DomainError("point outside the backward lightcone Gamma_T")
    tau = -np.log1p(-t / T)  # exactly 0 at t = 0, never negative
    rho = r / (T - t)
    return tau, rho


def from_similarity(T: float, tau, rho):
    """(tau, rho) on the cylinder -> (t, r)."""
    tau = np.asarray(tau, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(tau < 0) or np.any(rho < 0) or np.any(rho > 1):
        raise DomainError("similarity point outside [0,inf) x [0,1]")
    t = T - T * np.exp(-tau)
    r = T * np.exp(-tau) * rho
    return t, r


def psi_from_u(d: int, T: float, u, tau, rho):
    """psi(tau, rho) = (T e^{-tau})^{(d-2)/2} u(T - T e^{-tau}, T e^{-tau} rho)."""
    check_dimension(d)
    tau = np.asarray(tau, dtype=float)
    t, r = from_similarity(T, tau, rho)
    return (T * np.exp(-tau)) ** ((d - 2) / 2.0) * u(t, r)


# ---------------------------------------------------------------------------
# nonlinearity around the blowup profile
# ---------------------------------------------------------------------------


def potential_constant(d: int) -> float:
    """(2d+d^2)/4 = (p+1) c_d^p, p = 4/(d-2): the constant potential of the
    linearization around the blowup profile in similarity coordinates."""
    return (2.0 * d + d * d) / 4.0


@functools.cache
def _nonlinear_constants(d):
    """(c_d, 4/(d-2), c_d^{(d+2)/(d-2)}, (2d+d^2)/4, poly), d checked once.

    For an even p = 4/(d-2) (d = 3, 4) ``poly`` holds the binomial
    coefficients C(p+1, k) c_d^{p+1-k} of x^k for k = p, ..., 2, the
    polynomial N divided by x^2 without its leading 1; else it is empty.
    """
    check_dimension(d, nonlinear=True)
    c, p = c_d(d), 4.0 / (d - 2)
    poly = ()
    if p % 2 == 0:
        q = int(p) + 1
        poly = tuple(math.comb(q, k) * c ** (q - k) for k in range(q - 1, 1, -1))
    return c, p, c ** ((d + 2.0) / (d - 2.0)), potential_constant(d), poly


def nonlinearity(d: int, x):
    """N(x) = |c_d + x|^{4/(d-2)} (c_d + x) - c_d^{(d+2)/(d-2)} - (2d+d^2)/4 x.

    N is O(x^2).  For d = 3, 4 it is the polynomial sum_{k=2}^{p+1}
    C(p+1, k) c_d^{p+1-k} x^k, evaluated as x^2 times a Horner sum: no
    abs or pow, and no cancellation against c_d^{p+1} and the linear
    term, so it is exact to rounding (relative error <= 1e-14 on
    |x| in [1e-9, 0.5]).  d = 5, 6 keep the power form, whose
    cancellation costs relative accuracy at small |x|: against an exact
    c_d it is off by 0.2 (d 5) and 0.4 (d 6) relative at x = 1e-7; the
    power form at d 4 was off by 1.3e-2 there.
    """
    c, p, c_pow, beta, poly = _nonlinear_constants(d)
    x = np.asarray(x, dtype=float)
    if poly:
        acc = x
        for a in poly[:-1]:
            acc = (acc + a) * x
        return (acc + poly[-1]) * (x * x)
    y = c + x
    return np.abs(y) ** p * y - c_pow - beta * x


# ---------------------------------------------------------------------------
# Strichartz admissibility
# ---------------------------------------------------------------------------


def q_bounds(d: int):
    """Admissible q interval [2d/(d-2), 2d/(d-3)] (upper bound inf for d=3)."""
    check_dimension(d)
    hi = math.inf if d == 3 else 2.0 * d / (d - 3.0)
    return 2.0 * d / (d - 2.0), hi


def strichartz_pairs(d: int):
    """The ends (2, q_hi) and (inf, q_lo) of the admissible line."""
    q_lo, q_hi = q_bounds(d)
    return (2.0, q_hi), (math.inf, q_lo)


def admissible(d: int, p: float, q: float) -> bool:
    """True iff 1/p + d/q = d/2 - 1 (to 1e-12) with p in [2, inf], q in range."""
    check_dimension(d)
    tol = 1e-12
    if p < 2.0:
        return False
    qlo, qhi = q_bounds(d)
    if q < qlo - tol or q > qhi + tol:
        return False
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return abs(inv_p + d / q - (d / 2.0 - 1.0)) <= tol


# ---------------------------------------------------------------------------
# Liouville-Green machinery shared with the ODE analysis
# ---------------------------------------------------------------------------


def varphi(rho):
    """Diffeomorphism phi(rho) = log((1+rho)/(1-rho)) / 2 of (0,1) onto (0,inf)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho >= 1):
        raise DomainError("varphi defined on [0, 1)")
    return 0.5 * (np.log1p(rho) - np.log1p(-rho))


def varphi_inverse(x):
    return np.tanh(np.asarray(x, dtype=float))


def liouville_green_potential(rho):
    """Q_phi(rho) = 1/(1-rho^2)^2 (closed form)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho >= 1):
        raise DomainError("potential defined on [0, 1)")
    return (1.0 - rho**2) ** -2.0
