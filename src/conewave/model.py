"""Blowup amplitude, nonlinearity and Strichartz pairs of the equation
in similarity coordinates.

The focusing energy-critical radial wave equation
(d_t^2 - d_r^2 - (d-1)/r d_r) u = u |u|^{4/(d-2)} has the space-independent
blowup family u^T(t) = c_d (T-t)^{(2-d)/2}.  Similarity coordinates

    rho = r / (T - t),    tau = -log(T - t) + log T

map the backward lightcone Gamma_T onto the cylinder [0, inf) x [0, 1],
and psi(tau, rho) = (T e^{-tau})^{(d-2)/2} u(T - T e^{-tau}, T e^{-tau} rho)
turns u^T into the constant c_d.  The library works on the cylinder
only; the map itself, like the profile u^T, is a test oracle
(``tests/closed_forms.py``).
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


def sphere_area(d: int) -> float:
    """|S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)."""
    check_dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


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

