"""Green function, resolvent application, and Laplace-contour semigroup.

The resolvent of the linearized operator reduces to the two-point
boundary problem on (0,1) built from the origin-regular solution u0 and
the analytic-at-one solution u1, normalized so that

    W(u1, u0)(rho) rho^{d-1} (1 - rho^2)^{1/2 + lam} = 2i.

Then
    G(rho, s, lam) = s^{d-1} (1-s^2)^{lam - 1/2} / (2i)
                     * (u0(rho) u1(s) for rho <= s, else u1(rho) u0(s))
and
    [R(lam) f]_1(rho) = u0(rho) int_rho^1 K u1 + u1(rho) int_0^rho K u0,
    K(s) = F_lam(s) s^{d-1} (1-s^2)^{lam - 1/2} / (2i),
    F_lam(s) = s f1'(s) + (lam + d/2) f1(s) + f2(s),
with the second output component u2 = lam u + rho u' + (d-2)/2 u - f1.
`build_kernel` returns the normalized u0, u1 and their derivatives on a
point set (and u0, u1 alone on a set of value points) for an array of
lam, from one `radialode.integrate` call; the resolvent, `green_eval`
and the kernel-decay scan all read them from there, and only
`integrate` knows the Frobenius pairs at 0 and 1 (it raises
IndexCollisionError on nodes near 1 where the pair at 1 does not exist:
|lam - 1/2| < 1e-8, lam = 3/2, 5/2, ...).  The resolvent output
is smooth at rho = 1: u1(1) = 1 and u0 int_rho^1 K u1 -> 0, so the
trace there is int_0^1 K u0, and the equation at rho = 1, where the u''
coefficient 1 - rho^2 vanishes, gives the derivative trace
(2 lam + 1) u'(1) = F_lam(1) - c0(lam) u(1).  The resolvent is applied
for an array of lam at once (`_resolvent_batch`, its one path), and
`residual_checks` verifies all lam of one such solve together: its
finite-difference residuals and round trips are (n_lam, n_test) arrays.

Quadrature uses Gauss-Legendre panels refined geometrically (ratio 1/2,
GEO_DEPTH = 24 levels) toward both endpoints; the panel at each end has width
2^-(GEO_DEPTH+1), so with the integrand's factor (1-s)^{lam-1/2} it holds
~(2^-(GEO_DEPTH+1))^{Re lam + 1/2} of the integrand's scale.  Output points are
inserted as panel boundaries, making the split integrals exact partial
sums over panels.  The integrand reads only u0 and u1 at the nodes, so
they are `integrate`'s value points: each is filled from the quintic
Hermite of the RK45 step that covers it, at no RHS call and no step
shortened, and per lam it holds three complex numbers (u0, u1 and the
kernel weight, 48 bytes).  Only the output points and RHO_MID (the
normalization point, a panel boundary) are RK45 checkpoints with
derivatives.  At the benchmark's laplace-compare (eps 0.4, Omega 100,
domega 0.2: two batches of ~250 lam, ~1,830 nodes each) the RK45 work
is 1,918 steps and 3.97 M RHS rows, against 2,288 steps and 8.45 M rows
when every node was a checkpoint.

The semigroup is evaluated by truncated Laplace inversion

    [S(tau)(I-P) f]_1 = (1/2 pi) int_{-Omega}^{Omega}
                        e^{(eps + i w) tau} [R(eps + i w) f]_1 dw,

using the conjugate symmetry of the integrand for real data.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

# unused here, but the benchmark's tracer patches conewave.green:_rk45.solve
from . import _rk45
from .collocation import even_cheb_coeffs, even_cheb_eval
from .errors import (DomainError, NearEigenvalueError, QuadratureError,
                     TruncationWarning)
from .model import potential_constant, varphi
# `integrate` is bound here by name: the benchmark's tracer patches
# conewave.green:integrate and conewave.green:build_kernel
from .radialode import RHO_MID, integrate, matching_wronskian, ode_residual
from .specfun import (bessel_j, bessel_j_deriv, bessel_y, bessel_y_deriv)

GEO_DEPTH = 24
GL_NODES = 12
EIGEN_GUARD = 1e-6
LAPLACE_RTOL = 2e-7   # RK45 tolerance of the contour resolvent solves
LAPLACE_BATCH = 500   # most frequencies integrated in one batched solve


@dataclass
class SourceTerm:
    """Inhomogeneity (f1, f2) with derivative access for f1."""

    f1: callable
    f1p: callable
    f2: callable

    @classmethod
    def from_grid(cls, disc, pair):
        """Interpolate a grid pair through its even-Chebyshev series."""
        u1, u2 = np.asarray(pair[0]), np.asarray(pair[1])
        c1 = even_cheb_coeffs(disc, u1)
        c2 = even_cheb_coeffs(disc, u2)
        return cls(
            f1=lambda s: even_cheb_eval(c1, s)[0],
            f1p=lambda s: even_cheb_eval(c1, s)[1],
            f2=lambda s: even_cheb_eval(c2, s)[0],
        )

    def F_lambda(self, s, lam, d):
        """F_lam(s) for a scalar lam, or an array of lam broadcast against s."""
        s = np.asarray(s, dtype=float)
        lam = np.asarray(lam, dtype=complex)
        return s * self.f1p(s) + (lam + d / 2.0) * self.f1(s) + self.f2(s)


# ---------------------------------------------------------------------------
# quadrature layout
# ---------------------------------------------------------------------------


def _panel_layout(rho_out):
    """(breakpoints, nodes, weights) of the composite rule on (0, 1).

    Breakpoints are the geometric ladders (GEO_DEPTH levels) toward 0 and 1
    merged with the positive output points; each panel carries a GL_NODES
    Gauss-Legendre rule.
    """
    left = 0.5 * 2.0 ** -np.arange(GEO_DEPTH + 1, dtype=float)
    right = 1.0 - left
    pts = set(left) | set(right) | {0.0, 1.0}
    pts |= {float(r) for r in np.asarray(rho_out).ravel() if 0.0 < r < 1.0}
    bps = np.array(sorted(pts))
    gx, gw = np.polynomial.legendre.leggauss(GL_NODES)
    a, b = bps[:-1], bps[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return bps, nodes, weights


# ---------------------------------------------------------------------------
# the kernel: normalized fundamental solutions on node sets (batched over lam)
# ---------------------------------------------------------------------------


def _normalize_kernel(d, lam_arr, u0, u0p, u1, u1p, pts):
    """Rescale u0 so W(u1,u0) rho^{d-1}(1-rho^2)^{1/2+lam} = 2i; return scale.

    W(u1, u0) = -mu (mu the eigen indicator's Wronskian) and its scale
    come from `radialode.matching_wronskian` at the point of pts nearest
    1/2.  Raises NearEigenvalueError when the normalized Wronskian is below
    EIGEN_GUARD relative to the solution magnitudes there.
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    j = int(np.argmin(np.abs(pts - 0.5)))
    rho = pts[j]
    w, scale = matching_wronskian((u1[:, j], u1p[:, j]), (u0[:, j], u0p[:, j]))
    fac = rho ** (d - 1.0) * np.exp((0.5 + lam_arr) * math.log(1.0 - rho * rho))
    kappa = w * fac
    bad = np.abs(kappa) <= EIGEN_GUARD * (scale * np.abs(fac))
    if np.any(bad):
        raise NearEigenvalueError(
            f"lam={lam_arr[bad][:3]} too close to an eigenvalue"
        )
    return (2.0j / kappa)[:, None]


def build_kernel(d: int, lam_arr, variant: str, pts, rtol: float, values=()):
    """(u0, u0', u1, u1', c) on ascending pts in (0, 1), arrays (n_lam, n_pts);
    u0 and u1 also hold the ascending value points `values` after pts,
    where `integrate` forms no derivative (arrays (n_lam, n_pts + n_values)).

    u1 is the analytic-at-one solution and u0 the origin-regular one scaled
    by c (shape (n_lam, 1)) to the normalization of the module docstring,
    matched at the point of pts nearest 1/2.  The origin series starts at
    1, so c is also u0(0).
    """
    u0, u0p, u1, u1p = integrate(d, lam_arr, variant, pts, rtol, values)
    c = _normalize_kernel(d, lam_arr, u0, u0p, u1, u1p, pts)
    u0 *= c
    u0p *= c
    return u0, u0p, u1, u1p, c


def _kernel_weight(d, lam_arr, s):
    """s^{d-1} (1-s^2)^{lam-1/2} / (2i), arrays (n_lam, n_s), built in
    place as one array."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    w = np.multiply.outer(lam_arr - 0.5, np.log(1.0 - s * s))
    np.exp(w, out=w)
    w *= s ** (d - 1.0) / 2.0j
    return w


def green_eval(d: int, lam, variant: str, rho, s, rtol: float = 1e-10):
    """G(rho, s, lam) for a scalar or an array of lam; continuous across
    rho = s."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho, s = float(rho), float(s)
    lo, hi = min(rho, s), max(rho, s)
    pts = np.unique([lo, hi, 0.5])
    u0, _, u1, _, _ = build_kernel(d, lam_arr, variant, pts, rtol)
    i, j = np.searchsorted(pts, [lo, hi])
    g = _kernel_weight(d, lam_arr, s)[:, 0] * u0[:, i] * u1[:, j]
    return complex(g[0]) if np.ndim(lam) == 0 else g


# ---------------------------------------------------------------------------
# resolvent application
# ---------------------------------------------------------------------------


def _resolvent_batch(d, lam_arr, variant, src: SourceTerm, rho_out, rtol):
    """[R(lam) f] as (u1, u2, u1') on rho_out for each lam; arrays
    (n_lam, n_out).

    Endpoints are allowed: at rho=0 only the regular branch contributes,
    and at rho=1 the trace is int_0^1 K u0 and the derivative trace comes
    from the equation there (module docstring).  The kernel is built with
    derivatives only on the interior output points and RHO_MID, where
    it is normalized; the quadrature nodes are value points (`integrate`).
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    rho_out = np.asarray(rho_out, dtype=float)
    if np.any(rho_out < 0.0) or np.any(rho_out > 1.0):
        raise DomainError("output points must lie in [0, 1]")
    interior = (rho_out > 0.0) & (rho_out < 1.0)
    bps, nodes, wts = _panel_layout(rho_out[interior])

    pts = np.union1d(rho_out[interior], [RHO_MID])
    u0, u0p, u1, u1p, scale0 = build_kernel(d, lam_arr, variant, pts, rtol,
                                            nodes)
    out_ix = np.searchsorted(pts, rho_out[interior])

    # the panel sums of K u0 and K u1 with K = kern F_lam, F_lam = f0 + lam
    # f1: kern is the one (n_lam, n_nodes) array beside u0 and u1, and
    # einsum forms each sum over (panel, node) without another
    kern = _kernel_weight(d, lam_arr, nodes)
    kern *= wts
    n_lam, n_panels = len(lam_arr), len(bps) - 1
    grid = (n_lam, n_panels, GL_NODES)
    kern = kern.reshape(grid)
    f0 = src.F_lambda(nodes, 0.0, d).reshape(grid[1:])
    f1 = src.f1(nodes).reshape(grid[1:])

    def panel_sums(u):
        u = u[:, len(pts):].reshape(grid)
        return (np.einsum("lpn,pn,lpn->lp", kern, f0, u)
                + lam_arr[:, None] * np.einsum("lpn,pn,lpn->lp", kern, f1, u))

    zero = np.zeros((n_lam, 1), dtype=complex)
    cums0 = np.concatenate([zero, np.cumsum(panel_sums(u0), axis=1)], axis=1)
    cums1 = np.concatenate([zero, np.cumsum(panel_sums(u1), axis=1)], axis=1)
    tot1 = cums1[:, -1][:, None]

    bp_of_out = np.searchsorted(bps, rho_out)
    i0 = cums0[:, bp_of_out]           # int_0^rho K u0
    i1 = tot1 - cums1[:, bp_of_out]    # int_rho^1 K u1

    uo = np.zeros((n_lam, len(rho_out)), dtype=complex)
    uop = np.zeros_like(uo)
    uo[:, interior] = u0[:, out_ix] * i1[:, interior] + u1[:, out_ix] * i0[:, interior]
    uop[:, interior] = u0p[:, out_ix] * i1[:, interior] + u1p[:, out_ix] * i0[:, interior]
    # at rho = 0: I0 = 0 and u1 I0 -> 0, so only the regular branch acts;
    # u0(0) is the kernel's scale, u0'(0) = 0
    uo[:, rho_out == 0.0] = scale0 * tot1
    # at rho = 1 (module docstring): U(1) = I0(1), and (2 lam + 1) U'(1)
    # = F_lam(1) - c0 U(1), where -c0 U is ode_residual with u' = u'' = 0
    at_one = rho_out == 1.0
    u_one = cums0[:, -1:]
    rhs_one = src.F_lambda(1.0, lam_arr[:, None], d) + ode_residual(
        d, lam_arr[:, None], variant, 1.0, u_one, 0.0, 0.0)
    uo[:, at_one] = u_one
    uop[:, at_one] = rhs_one / (2.0 * lam_arr[:, None] + 1.0)
    if not np.all(np.isfinite(uo)):
        raise QuadratureError("endpoint integral did not converge")
    u2 = (lam_arr[:, None] + (d - 2.0) / 2.0) * uo + rho_out[None, :] * uop \
        - src.f1(rho_out)[None, :]
    return uo, u2, uop


def residual_checks(d: int, lams, variant: str, src: SourceTerm,
                    rho_test) -> list:
    """Independent verification that (lam - L) R(lam) f = f at rho_test,
    for each lam of lams; the resolvents come from one batched solve.

    Derivatives that the construction does not supply (u1'', u2') are
    formed by 4th-order central differences of the returned u1', u2 on
    local stencils, so the check does not reuse the Green-function
    algebra.  Returns one dict per lam with the relative sup of the
    reduced-ODE residual and of the full round trip (second component).
    Both are blind to an error that solves the homogeneous equation: at
    d 4, lam = 0.1 + 10i the resolvent of an exact polynomial pair is off
    by 7.7e-4, all of it a multiple of u0 (the endpoint-panel share of the
    quadrature), while both checks read below 1.3e-9.
    """
    lams = np.asarray(lams, dtype=complex)
    h = 2e-4
    rho_test = np.asarray(rho_test, dtype=float)
    if np.any(rho_test - 2 * h <= 0.0) or np.any(rho_test + 2 * h >= 1.0):
        raise DomainError("test points must keep the FD stencil inside (0,1)")
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    pts = np.unique((rho_test[:, None] + offsets[None, :]).ravel())
    sol_u1, sol_u2, sol_u1p = _resolvent_batch(d, lams, variant, src, pts,
                                               rtol=1e-10)
    ix = np.searchsorted(pts, rho_test[:, None] + offsets[None, :])
    w_fd = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    r = rho_test
    beta = potential_constant(d) if variant == "perturbed" else 0.0
    f1_true = src.f1(r)
    f2_true = src.f2(r)
    fnorm = max(float(np.max(np.abs(f1_true))), float(np.max(np.abs(f2_true))))
    # (n_lam, n_test) arrays; the FD stencils are the last axis of [:, ix]
    lam = lams[:, None]
    u1 = sol_u1[:, ix[:, 2]]
    u1p = sol_u1p[:, ix[:, 2]]
    u2 = sol_u2[:, ix[:, 2]]
    u1pp = (sol_u1p[:, ix] * w_fd).sum(axis=2)
    u2p = (sol_u2[:, ix] * w_fd).sum(axis=2)

    flam = src.F_lambda(r, lam, d)
    ode_res = ode_residual(d, lam, variant, r, u1, u1p, u1pp) + flam
    fscale = np.max(np.abs(flam), axis=1) + 1e-300
    f1_back = lam * u1 + r * u1p + (d - 2.0) / 2.0 * u1 - u2
    f2_back = (lam * u2 - u1pp - (d - 1.0) / r * u1p
               + r * u2p + d / 2.0 * u2 - beta * u1)
    rt = np.maximum(np.max(np.abs(f1_back - f1_true), axis=1),
                    np.max(np.abs(f2_back - f2_true), axis=1)) / (fnorm + 1e-300)
    ode = np.max(np.abs(ode_res), axis=1) / fscale
    return [{"ode_residual": float(o), "round_trip": float(t)}
            for o, t in zip(ode, rt)]


# ---------------------------------------------------------------------------
# kernel decay and Laplace inversion
# ---------------------------------------------------------------------------


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


def semigroup_laplace(d: int, tau: float, src: SourceTerm, rho_out,
                      eps: float = 0.1, omega_max: float = 200.0,
                      domega: float = 0.05) -> np.ndarray:
    """[S(tau)(I-P) f]_1 on rho_out by truncated Laplace inversion.

    The large-|lam| asymptote R(lam) f ~ f / lam is inverted analytically
    (its Bromwich integral is f for tau >= 0), so the contour quadrature
    only sees the O(lam^{-2}) remainder:

        out = f1 + (1/2 pi) int_{-Omega}^{Omega} e^{(eps+i w) tau}
              ([R f]_1 - f1 / (eps + i w)) dw.

    src must already have the gauge-mode projection removed.  Real data
    makes the integrand conjugate-symmetric, so only w >= 0 is computed,
    on the trapezoid grid of step domega, of which omega_max must be a
    multiple (DomainError), in the fewest equal batches of at most
    LAPLACE_BATCH frequencies.
    Emits TruncationWarning with the relative last-octave tail estimate.
    """
    if not (0.0 < eps < 0.5):
        raise DomainError("contour shift must lie in (0, 1/2)")
    if omega_max > 400.0:
        raise DomainError("omega_max must be <= 400")
    n_w = int(round(omega_max / domega))
    if abs(n_w * domega - omega_max) > 1e-9:
        raise DomainError("omega_max must be a multiple of domega")
    rho_out = np.asarray(rho_out, dtype=float)
    f1_out = np.asarray(src.f1(rho_out), dtype=float)
    omegas = np.arange(n_w + 1) * domega
    weights = np.full(n_w + 1, domega)  # trapezoid rule
    weights[0] *= 0.5
    weights[-1] *= 0.5
    total = f1_out.copy()
    tail = np.zeros(len(rho_out))
    n_batches = math.ceil((n_w + 1) / LAPLACE_BATCH)
    for ix in np.array_split(np.arange(n_w + 1), n_batches):
        ws, coef = omegas[ix], weights[ix]
        lam = eps + 1j * ws
        u1, _, _ = _resolvent_batch(d, lam, "perturbed", src, rho_out,
                                    rtol=LAPLACE_RTOL)
        u1 = u1 - f1_out[None, :] / lam[:, None]
        phases = np.exp((eps + 1j * ws) * tau)
        terms = coef[:, None] * np.real(phases[:, None] * u1)
        total += terms.sum(axis=0) / math.pi
        tail += terms[ws >= omega_max / 2.0].sum(axis=0) / math.pi
    denom = float(np.linalg.norm(total)) + 1e-300
    tail_rel = float(np.linalg.norm(tail)) / denom
    if tail_rel > 0.01:
        warnings.warn(
            f"last contour octave carries {tail_rel:.2%} of the inversion",
            TruncationWarning,
        )
    return total


# ---------------------------------------------------------------------------
# perturbed Bessel model near the origin
# ---------------------------------------------------------------------------


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
    if kind == "J":
        f = np.array([bessel_j(nu, zz) for zz in np.atleast_1d(z)])
        fp = np.array([bessel_j_deriv(nu, zz) for zz in np.atleast_1d(z)])
    else:
        f = np.array([bessel_y(nu, zz) for zz in np.atleast_1d(z)])
        fp = np.array([bessel_y_deriv(nu, zz) for zz in np.atleast_1d(z)])
    z1 = np.atleast_1d(z)
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
    u0 = integrate(d, [lam], "perturbed", pts, 1e-11)[0]
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
