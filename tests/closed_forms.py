"""Closed forms of the paper and checks of its statements that the tests
use as oracles; the library does not run them.

* the blowup family, the similarity map, Strichartz admissibility and
  the Liouville-Green change of variable phi = artanh rho;
* the discrete gauge residual, dissipativity and norm-equivalence
  checks of the collocation;
* Gauss 2F1 on [0, 1), hand-rolled (power series plus analytic
  continuation by Taylor recentering), since scipy's ``hyp2f1`` takes no
  complex parameters; the c3 route's closed forms are checked against it;
* the Green function at a point, the kernel-decay scan, the
  even-Chebyshev series of grid values and a `SourceTerm` interpolated
  through it, and the perturbed Bessel model near the origin, which
  calls ``scipy.special`` directly;
* the fundamental system of the free equation at lam = 1, which is
  elementary; it checks the integrated solutions, their Wronskian and
  the continuation of the origin-regular solution toward rho = 1.

Calls into the library go through its modules (``gr.build_kernel``,
``gr.integrate``), so a test that patches a module attribute patches
what these oracles call.
"""

import cmath
import math

import numpy as np
import scipy.special

from conewave import collocation as co
from conewave import green as gr
from conewave import specfun as sf
from conewave.errors import DomainError, ParamError
from conewave.model import c_d, check_dimension, q_bounds


# ---------------------------------------------------------------------------
# blowup family, similarity coordinates, admissibility
# ---------------------------------------------------------------------------


def ode_blowup(d: int, T: float, t) -> float:
    """u^T(t) = c_d (T-t)^{(2-d)/2}; independent of r."""
    check_dimension(d)
    t = np.asarray(t, dtype=float)
    if np.any(t >= T):
        raise DomainError("blowup profile defined for t < T only")
    return c_d(d) * (T - t) ** ((2.0 - d) / 2.0)


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


def varphi(rho):
    """Diffeomorphism phi(rho) = log((1+rho)/(1-rho)) / 2 of (0,1) onto (0,inf)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho >= 1):
        raise DomainError("varphi defined on [0, 1)")
    return 0.5 * (np.log1p(rho) - np.log1p(-rho))


def liouville_green_potential(rho):
    """Q_phi(rho) = 1/(1-rho^2)^2 (closed form)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho >= 1):
        raise DomainError("potential defined on [0, 1)")
    return (1.0 - rho**2) ** -2.0


# ---------------------------------------------------------------------------
# collocation checks
# ---------------------------------------------------------------------------


def gauge_residual(disc: co.SpectralDiscretization) -> float:
    """|| L g - g ||_2 / || g ||_2 with exactly accumulated row sums.

    g is blockwise constant, so (L g)_i = 2 * sum(block 1) + d * sum(block 2)
    with each block-row sum computed by math.fsum.
    """
    n1 = disc.N
    d = float(disc.d)
    lm = disc.L_mat
    res = np.empty(2 * n1)
    for i in range(2 * n1):
        s1 = math.fsum(lm[i, :n1])
        s2 = math.fsum(lm[i, n1:])
        res[i] = 2.0 * s1 + d * s2 - disc.g_disc[i]
    return float(np.linalg.norm(res) / np.linalg.norm(disc.g_disc))


def dissipativity_check(disc: co.SpectralDiscretization, n_samples: int = 100,
                        seed: int = 0) -> float:
    """max over random smooth pairs of Re (L0 u | u)_E / ||u||_E^2."""
    if n_samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_samples):
        u = co.random_smooth_pair(disc, rng)
        lu = disc.L0_mat @ u
        q = (co.energy_product(disc, lu, u).real
             / co.energy_product(disc, u, u).real)
        worst = max(worst, q)
    return worst


def norm_equivalence_check(disc: co.SpectralDiscretization,
                           n_samples: int = 100, seed: int = 0):
    """(min, max) of ||u||_E / ||u||_{H1 x L2} over random smooth pairs."""
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(n_samples):
        u = co.random_smooth_pair(disc, rng)
        r = co.energy_norm(disc, u) / co.sobolev_norm(disc, u)
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on the real interval [0, 1)
# ---------------------------------------------------------------------------


_SERIES_MAX_TERMS = 2000


def _check_2f1_params(c: complex):
    if sf._near_nonpositive_int(complex(c), 1e-12):
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
# Green function, kernel decay, interpolation, perturbed Bessel model
# ---------------------------------------------------------------------------


def green_eval(d: int, lam, variant: str, rho, s, rtol: float = 1e-10):
    """G(rho, s, lam) for a scalar or an array of lam; continuous across
    rho = s."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho, s = float(rho), float(s)
    lo, hi = min(rho, s), max(rho, s)
    pts = np.unique([lo, hi, 0.5])
    u0, _, u1, _, _ = gr.build_kernel(d, lam_arr, variant, pts, rtol)
    i, j = np.searchsorted(pts, [lo, hi])
    # s^{d-1} (1-s^2)^{lam-1/2} / (2i) u0(min) u1(max)
    weight = s ** (d - 1.0) * np.exp((lam_arr - 0.5) * math.log(1.0 - s * s))
    g = weight / 2.0j * u0[:, i] * u1[:, j]
    return complex(g[0]) if np.ndim(lam) == 0 else g


def kernel_decay_scan(d: int, rho: float, s: float, omega_list,
                      eps: float = 0.1) -> dict:
    """|G - G_f|(rho, s, eps + i w) over omega_list with a log-log slope fit."""
    if not (0.05 <= rho < 1.0 and 0.05 <= s < 1.0):
        raise DomainError("evaluation points should lie inside (0, 1)")
    omegas = np.asarray(sorted(omega_list), dtype=float)
    lam = eps + 1j * omegas
    diffs = np.abs(green_eval(d, lam, "perturbed", rho, s)
                   - green_eval(d, lam, "free", rho, s))
    pos = omegas > 0
    slope = float(np.polyfit(np.log(omegas[pos]), np.log(diffs[pos]), 1)[0]) \
        if np.sum(pos) >= 2 else math.nan
    return {
        "d": d, "rho": rho, "s": s, "eps": eps,
        "omegas": omegas.tolist(), "differences": diffs.tolist(),
        "slope": slope,
        "monotone": bool(np.all(np.diff(diffs[pos]) < 0.0)),
    }


def even_cheb_eval(coeffs, rho):
    """Evaluate the even-Chebyshev series and its rho-derivative."""
    rho = np.asarray(rho, dtype=float)
    z = 2.0 * rho * rho - 1.0
    val = np.polynomial.chebyshev.chebval(z, coeffs)
    dcoef = np.polynomial.chebyshev.chebder(coeffs)
    dval = np.polynomial.chebyshev.chebval(z, dcoef) * 4.0 * rho
    return val, dval


def source_from_grid(disc, pair):
    """Interpolate a grid pair through its even-Chebyshev series."""
    u1, u2 = np.asarray(pair[0]), np.asarray(pair[1])
    c1 = co.even_cheb_coeffs(disc, u1)
    c2 = co.even_cheb_coeffs(disc, u2)
    return gr.SourceTerm(
        f1=lambda s: even_cheb_eval(c1, s)[0],
        f1p=lambda s: even_cheb_eval(c1, s)[1],
        f2=lambda s: even_cheb_eval(c2, s)[0],
    )


def _b_solution(d, lam, rho, kind: str):
    """b_1/b_2 = sqrt((1-rho^2) phi) J/Y_{(d-2)/2}(a phi) and derivatives."""
    rho = np.asarray(rho, dtype=float)
    nu = (d - 2.0) / 2.0
    a = 1j * (0.5 - complex(lam))
    phi = varphi(rho)
    om = 1.0 - rho * rho
    g = om * phi
    gp = -2.0 * rho * phi + 1.0
    gpp = -2.0 * phi - 2.0 * rho / om
    m = np.sqrt(g)
    mp = gp / (2.0 * m)
    mpp = gpp / (2.0 * m) - gp * gp / (4.0 * g * m)
    z = a * phi
    phip = 1.0 / om
    phipp = 2.0 * rho / om**2
    z1 = np.atleast_1d(z)
    if kind == "J":
        f, fp = scipy.special.jv(nu, z1), scipy.special.jvp(nu, z1)
    else:
        f, fp = scipy.special.yv(nu, z1), scipy.special.yvp(nu, z1)
    fpp = -fp / z1 - (1.0 - nu * nu / z1**2) * f
    b = m * f
    bp = mp * f + m * fp * a * phip
    bpp = (mpp * f + 2.0 * mp * fp * a * phip
           + m * (fpp * (a * phip) ** 2 + fp * a * phipp))
    return b, bp, bpp


def perturbed_bessel_check(d: int, lam, rho_grid) -> dict:
    """Residual of b1 in the Liouville-Green model equation, the rho -> 0
    convergence rate of the transformed origin-regular solution toward b1,
    and the cross Wronskian W(b1, b2) = 2/pi."""
    lam = complex(lam)
    rho_grid = np.asarray(rho_grid, dtype=float)
    b1, b1p, b1pp = _b_solution(d, lam, rho_grid, "J")
    om = 1.0 - rho_grid**2
    phi = varphi(rho_grid)
    # v'' = [phi'^2 ((1/2-lam)^2 - (4d-d^2-3)/(4 phi^2)) - Q_phi] v with
    # Q_phi = 1/(1-rho^2)^2 (the Liouville-Green correction enters with a
    # minus sign, as direct substitution into the no-first-order form shows)
    pot = ((1.0 - 4.0 * lam + 4.0 * lam * lam) / (4.0 * om**2)
           - (4.0 * d - d * d - 3.0) / (4.0 * phi**2 * om**2)
           - 1.0 / om**2)
    resid = b1pp - pot * b1
    res_rel = float(np.max(np.abs(resid) / (np.abs(b1pp) + np.abs(pot * b1))))

    b2, b2p, _ = _b_solution(d, lam, rho_grid, "Y")
    wr = b1 * b2p - b1p * b2
    wr_err = float(np.max(np.abs(wr - 2.0 / math.pi) * math.pi / 2.0))

    # transformed origin-regular solution against b1
    rho_ref = 1e-3
    pts = np.unique(np.append(rho_grid, rho_ref))
    u0 = gr.integrate(d, [lam], "perturbed", pts, 1e-11)[0]
    u0r = u0[0, np.searchsorted(pts, rho_ref)]
    u0 = u0[0, np.searchsorted(pts, rho_grid)]
    v = rho_grid ** ((d - 1.0) / 2.0) * np.exp(
        (0.25 + lam / 2.0) * np.log(om)) * u0
    ratio = v / b1
    vref = rho_ref ** ((d - 1.0) / 2.0) * cmath.exp(
        (0.25 + lam / 2.0) * math.log(1.0 - rho_ref**2)) * complex(u0r)
    b1r = _b_solution(d, lam, np.asarray([rho_ref]), "J")[0][0]
    c_inf = complex(vref / b1r)
    dev = np.abs(ratio - c_inf)
    fit_mask = (rho_grid >= 0.02) & (rho_grid <= 0.3) & (dev > 0)
    if np.sum(fit_mask) >= 2:
        slope = float(np.polyfit(np.log(rho_grid[fit_mask]),
                                 np.log(dev[fit_mask]), 1)[0])
    else:
        slope = math.nan
    return {
        "d": d, "lam": lam,
        "model_residual": res_rel,
        "wronskian_error": wr_err,
        "ratio_constant": c_inf,
        "rate_slope": slope,
    }


# ---------------------------------------------------------------------------
# closed-form fundamental system at lam = 1
# ---------------------------------------------------------------------------


class ExplicitLambda1:
    """Fundamental system of the free equation at lam=1, in closed form.

    u0 = ((1+s)^{d/2-1} s)^{-1}, u1 = ((1-s)^{d/2-1}-(1+s)^{d/2-1})/(rho^{d-2} s)
    with s = sqrt(1-rho^2); their Wronskian is (d-2) rho^{1-d} (1-rho^2)^{-3/2}.
    h1 is the second solution of the perturbed equation at lam=1 used in the
    multiplicity argument, h1(rho) = int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt.
    """

    def __init__(self, d: int):
        self.d = check_dimension(d)

    def u0(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.sqrt(1.0 - rho**2)
        return 1.0 / ((1.0 + s) ** (self.d / 2.0 - 1.0) * s)

    def u0_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        return rho * (1.0 + d / 2.0 * s) / ((1.0 + s) ** (d / 2.0) * s**3)

    def u1(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        one_minus_s = rho**2 / (1.0 + s)   # 1 - s without cancellation
        return (one_minus_s ** (d / 2.0 - 1.0) - (1.0 + s) ** (d / 2.0 - 1.0)) / (
            rho ** (d - 2.0) * s
        )

    def u1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        one_minus_s = rho**2 / (1.0 + s)
        a = one_minus_s ** (d / 2.0 - 1.0)
        b = (1.0 + s) ** (d / 2.0 - 1.0)
        dab = (d / 2.0 - 1.0) * (rho / s) * (
            one_minus_s ** (d / 2.0 - 2.0) + (1.0 + s) ** (d / 2.0 - 2.0)
        )
        return dab / (rho ** (d - 2.0) * s) - (a - b) * (
            (d - 2.0) * s**2 - rho**2
        ) / (rho ** (d - 1.0) * s**3)

    def wronskian(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (self.d - 2.0) * rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5

    def h1(self, rho):
        """int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt by Gauss-Legendre."""
        rho = np.asarray(rho, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty(rho.shape)
        for i, r in enumerate(rho):
            a, b = 0.5, float(r)
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            f = t ** (1.0 - self.d) * (1.0 - t**2) ** -1.5
            out[i] = 0.5 * (b - a) * np.dot(weights, f)
        return out[0] if scalar else out

    def h1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        return rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5
