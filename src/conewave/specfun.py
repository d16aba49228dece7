"""Complex Gamma and the closed-form connection coefficient.

Gamma is hand-rolled, so the eigenvalue cross-check through the c3
connection coefficient stays independent of the library stack the tests
compare against:

* ``gamma_c``    -- complex Gamma, Lanczos approximation + reflection,
* ``c3_connection`` -- the closed-form connection coefficient
                    Gamma(c)Gamma(a+b-c+1)/(Gamma(a)Gamma(b)) whose zeros
                    in the right half plane detect eigenvalues.

Principal branch for all complex powers and logs.
"""

import math

import numpy as np

from .errors import ParamError, PoleError
from .model import check_dimension

# Lanczos coefficients, g = 607/128, n = 15 (Godfrey's set).  Relative
# error of the approximation is below 1e-14 on Re z >= 1/2.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)

_POLE_TOL = 1e-14


def _near_nonpositive_int(z, tol: float = _POLE_TOL):
    """Elementwise: z within tol of 0, -1, -2, ..."""
    z = np.asarray(z, dtype=complex)
    n = np.round(z.real)
    return (z.real <= 0.5) & (n <= 0) & (np.abs(z - n) <= tol)


def _out(z, vals):
    """vals as a complex scalar if z is one, else as an array."""
    return complex(vals) if np.ndim(z) == 0 else vals


def gamma_c(z):
    """Gamma(z) for complex z or an array of them, accurate to ~1e-13
    relative on |Re z|,|Im z| <= 60.

    Raises PoleError within 1e-14 of a nonpositive integer.
    """
    w = np.asarray(z, dtype=complex)
    pole = _near_nonpositive_int(w)
    if np.any(pole):
        raise PoleError(f"Gamma pole at z={w[pole][0]}")
    # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1-z)) on Re z < 1/2
    refl = w.real < 0.5
    zz = np.where(refl, -w, w - 1.0)
    a = _LANCZOS_C[0] + sum(c / (zz + k) for k, c in enumerate(_LANCZOS_C[1:], 1))
    t = zz + _LANCZOS_G + 0.5
    g = math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * np.exp(-t) * a
    return _out(z, np.where(refl, math.pi / (np.sin(math.pi * w) * g), g))


def rgamma(z):
    """1/Gamma(z) for complex z or an array of them; entire, returns
    exactly 0 at nonpositive integers."""
    pole = _near_nonpositive_int(z)
    return _out(z, np.where(pole, 0.0, 1.0 / gamma_c(np.where(pole, 1.0, z))))


# ---------------------------------------------------------------------------
# Closed-form connection coefficient
# ---------------------------------------------------------------------------


def hypergeo_params(d: int, lam, variant: str):
    """(a, b, c) of the hypergeometric reduction z = rho^2 of the spectral
    ODE, for a scalar lam or elementwise over an array of lam."""
    lam = lam + 0j
    if variant == "perturbed":
        return lam / 2.0 + d / 2.0, lam / 2.0 - 0.5, d / 2.0
    if variant == "free":
        return (2.0 * lam + d - 2.0) / 4.0, (2.0 * lam + d) / 4.0, d / 2.0
    raise ParamError(f"unknown variant {variant!r}")


def c3_connection(d: int, lam, variant: str):
    """Gamma(c)Gamma(a+b-c+1) / (Gamma(a)Gamma(b)) for the given variant,
    complex for a scalar lam and an array for an array of lam.

    Zeros in lam (poles of Gamma(a), Gamma(b)) flag eigenvalues; returns an
    exact 0 there.  For both variants a+b-c+1 = lam + 1/2, so numerator
    poles sit at lam = -1/2 - n and raise PoleError.
    """
    check_dimension(d)
    lam = np.asarray(lam, dtype=complex)
    a, b, c = hypergeo_params(d, lam, variant)
    num = gamma_c(c) * gamma_c(lam + 0.5)  # PoleError propagates
    return _out(lam, num * rgamma(a) * rgamma(b))
