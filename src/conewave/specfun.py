"""Complex special functions backing the spectral theory.

Gamma and 2F1 are hand-rolled, so the eigenvalue cross-checks (the c3
connection coefficient) stay independent of the library stack the tests
compare against; scipy's ``hyp2f1`` also takes no complex parameters.
The Bessel functions wrap ``scipy.special``, which is more accurate than
the series/Hankel code it replaced (worst relative error against mpmath
2.6e-14 against 5.6e-12 for |z| <= 67); only the Bessel-model check in
``green`` uses them:

* ``gamma_c``    -- complex Gamma, Lanczos approximation + reflection,
* ``hyp2f1``     -- Gauss 2F1 on z in [0,1) by power series plus analytic
                    continuation through repeated Taylor recentering,
* ``bessel_j/y`` -- J_nu, Y_nu (and derivatives) for the orders
                    (d-2)/2, d = 3..9, wrapping ``scipy.special``,
* ``c3_connection`` -- the closed-form connection coefficient
                    Gamma(c)Gamma(a+b-c+1)/(Gamma(a)Gamma(b)) whose zeros
                    in the right half plane detect eigenvalues.

Principal branch for all complex powers and logs.
"""

import cmath
import math


from .errors import DomainError, ParamError, PoleError

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


def _near_nonpositive_int(z: complex, tol: float = _POLE_TOL) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) <= tol


def gamma_c(z) -> complex:
    """Gamma(z) for complex z, accurate to ~1e-13 relative on |Re z|,|Im z| <= 60.

    Raises PoleError within 1e-14 of a nonpositive integer.
    """
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError(f"Gamma pole at z={z}")
    if z.real < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1-z))
        return math.pi / (cmath.sin(math.pi * z) * gamma_c(1.0 - z))
    zz = z - 1.0
    a = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        a += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * a


def rgamma(z) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at nonpositive integers."""
    z = complex(z)
    if _near_nonpositive_int(z):
        return 0.0 + 0.0j
    return 1.0 / gamma_c(z)


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on the real interval [0, 1)
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 2000


def _check_2f1_params(c: complex):
    if _near_nonpositive_int(complex(c), 1e-12):
        raise ParamError(f"2F1 undefined for c={c} (nonpositive integer)")


def _hyp2f1_series_with_deriv(a, b, c, z):
    """Series value and derivative d/dz at real z, |z| <= ~0.6.

    F = sum_k e_k z^k with e_0 = 1 and e_{k+1} = e_k (a+k)(b+k)/((c+k)(k+1)).
    """
    e = 1.0 + 0.0j
    s = e
    sp = 0.0 + 0.0j
    zk = 1.0
    for k in range(_SERIES_MAX_TERMS):
        e = e * (a + k) * (b + k) / ((c + k) * (1.0 + k))
        sp += (k + 1) * e * zk
        zk *= z
        val = e * zk
        s += val
        if k > 3 and abs(val) <= 1e-17 * (abs(s) + 1e-300):
            break
    return s, sp


def _taylor_recenter(a, b, c, z0, f0, f1, h):
    """Advance (F, F') from z0 to z0+h by a Taylor series of order 72.

    z(1-z)F'' + (c-(a+b+1)z)F' - ab F = 0 gives a 3-term recurrence for
    the Taylor coefficients at z0.
    """
    p0 = z0 * (1.0 - z0)
    p1 = 1.0 - 2.0 * z0
    p2 = -1.0
    q0 = c - (a + b + 1.0) * z0
    q1 = -(a + b + 1.0)
    r0 = -a * b
    t = [f0, f1]
    for m in range(72):
        tm = t[m]
        tm1 = t[m + 1]
        num = (p1 * (m + 1) * m + q0 * (m + 1)) * tm1 + (p2 * m * (m - 1) + q1 * m + r0) * tm
        t.append(-num / (p0 * (m + 2) * (m + 1)))
    f = 0.0 + 0.0j
    fp = 0.0 + 0.0j
    for k in range(len(t) - 1, 0, -1):
        f = f * h + t[k]
        fp = fp * h + k * t[k]
    f = f * h + t[0]
    return f, fp


def _hyp2f1_with_deriv(a, b, c, z):
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = float(z)
    _check_2f1_params(c)
    if not (0.0 <= z < 1.0):
        raise DomainError(f"2F1 evaluated only on [0,1), got z={z}")
    if a == 0 or b == 0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    if z <= 0.5:
        return _hyp2f1_series_with_deriv(a, b, c, z)
    z0 = 0.45
    f, fp = _hyp2f1_series_with_deriv(a, b, c, z0)
    # march toward z; each step stays well inside the disc of convergence
    while z0 < z:
        h = min(0.2, 0.45 * (1.0 - z0), z - z0)
        f, fp = _taylor_recenter(a, b, c, z0, f, fp, h)
        z0 += h
    return f, fp


def hyp2f1(a, b, c, z) -> complex:
    """Gauss 2F1(a,b;c;z) for real z in [0,1), complex parameters."""
    return _hyp2f1_with_deriv(a, b, c, z)[0]


def hyp2f1_deriv(a, b, c, z) -> complex:
    """d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    _check_2f1_params(c)
    if a == 0 or b == 0:
        return 0.0 + 0.0j
    return (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)


# ---------------------------------------------------------------------------
# Bessel functions J_nu, Y_nu for nu = (d-2)/2, d = 3..9
# ---------------------------------------------------------------------------

_ALLOWED_ORDERS = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5}


def _bessel_args(nu: float, z):
    if float(nu) not in _ALLOWED_ORDERS:
        raise DomainError(
            f"order nu={nu} unsupported; expected (d-2)/2 for d=3..9"
        )
    z = complex(z)
    if z == 0:
        raise DomainError("Bessel functions singular at z=0")
    return float(nu), z


# scipy.special is imported inside each wrapper: at module level it would
# add ~70 ms to every interpreter start, for the Bessel-model check alone


def bessel_j(nu: float, z) -> complex:
    """J_nu(z), nu = (d-2)/2 for d=3..9, complex z != 0."""
    import scipy.special

    return complex(scipy.special.jv(*_bessel_args(nu, z)))


def bessel_y(nu: float, z) -> complex:
    """Y_nu(z), same domain as bessel_j."""
    import scipy.special

    return complex(scipy.special.yv(*_bessel_args(nu, z)))


def bessel_j_deriv(nu: float, z) -> complex:
    """J_nu'(z), same domain as bessel_j."""
    import scipy.special

    return complex(scipy.special.jvp(*_bessel_args(nu, z)))


def bessel_y_deriv(nu: float, z) -> complex:
    """Y_nu'(z), same domain as bessel_j."""
    import scipy.special

    return complex(scipy.special.yvp(*_bessel_args(nu, z)))


# ---------------------------------------------------------------------------
# Closed-form connection coefficient
# ---------------------------------------------------------------------------


def hypergeo_params(d: int, lam, variant: str):
    """(a, b, c) of the hypergeometric reduction z = rho^2 of the spectral ODE."""
    lam = complex(lam)
    if variant == "perturbed":
        return lam / 2.0 + d / 2.0, lam / 2.0 - 0.5, d / 2.0
    if variant == "free":
        return (2.0 * lam + d - 2.0) / 4.0, (2.0 * lam + d) / 4.0, d / 2.0
    raise ParamError(f"unknown variant {variant!r}")


def c3_connection(d: int, lam, variant: str) -> complex:
    """Gamma(c)Gamma(a+b-c+1) / (Gamma(a)Gamma(b)) for the given variant.

    Zeros in lam (poles of Gamma(a), Gamma(b)) flag eigenvalues; returns an
    exact 0 there.  For both variants a+b-c+1 = lam + 1/2, so numerator
    poles sit at lam = -1/2 - n and raise PoleError.
    """
    if d < 3:
        raise DomainError("dimension must be >= 3")
    a, b, c = hypergeo_params(d, lam, variant)
    num = gamma_c(c) * gamma_c(complex(lam) + 0.5)  # PoleError propagates
    return num * rgamma(a) * rgamma(b)


def c3_zero_candidates(d: int, variant: str, re_min: float, re_max: float,
                       im_max: float):
    """Analytic zero set of c3 in the window, from the Gamma pole lattice.

    Zeros of c3 occur where a or b is a nonpositive integer and the
    numerator is regular.  All candidates are real.
    """
    out = []
    for n in range(0, 200):
        if variant == "perturbed":
            cands = (1.0 - 2.0 * n, float(-d - 2 * n))
        else:
            cands = ((2.0 - d) / 2.0 - 2.0 * n, -d / 2.0 - 2.0 * n)
        for lam in cands:
            if re_min <= lam <= re_max and abs(lam) <= max(im_max, abs(re_max)) + 1:
                # discard if the numerator Gamma(lam + 1/2) has a pole there
                if not _near_nonpositive_int(complex(lam + 0.5), 1e-9):
                    out.append(complex(lam))
    return sorted(set(out), key=lambda z: (-z.real, z.imag))
