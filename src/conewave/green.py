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
point set for an array of lam (and, given a `PanelSums`, the panel sums
of K u0 and K u1 on the quadrature nodes), from one `radialode.integrate`
call; the resolvent reads them from there, as do the tests' Green
function and kernel-decay oracles, and only `integrate` knows the
Frobenius pairs at 0 and 1 (it raises IndexCollisionError on nodes near
1 where the pair at 1 does not exist: |lam - 1/2| < 1e-8, lam = 3/2,
5/2, ...).  The resolvent output
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
sums over panels.  The integrand reads u0 and u1 at the nodes only
through those panel sums, so the nodes are `integrate`'s RK45 samples,
each filled from the quintic Hermite of the step that covers it (no RHS
call, no step shortened), and `integrate` hands their values to
`PanelSums` in blocks of ~`radialode.NODE_BLOCK` values as the zones
fill.  So per lam a batch holds two complex sums per panel (four while
the pair above RHO_MID is unmatched), not three complex numbers per node
(u0, u1 and the kernel weight) as when whole node arrays were formed.
Only the output points and RHO_MID (the normalization point, a panel
boundary) are RK45 checkpoints, landed on with derivatives.  At the
benchmark's
laplace-compare (eps 0.4, Omega 100, domega 0.2: two batches of ~250
lam, 144 panels of 12 nodes) the RK45 work is 1,417 steps and 2.67 M
RHS rows, and `semigroup_laplace` peaks at 6.8 MiB under tracemalloc
(26.3 MiB with whole node arrays; 11.5 against 46.8 MiB at the CLI
defaults); green-check makes 4,917 RHS calls.

The semigroup is evaluated by truncated Laplace inversion

    [S(tau)(I-P) f]_1 = (1/2 pi) int_{-Omega}^{Omega}
                        e^{(eps + i w) tau} [R(eps + i w) f]_1 dw,

using the conjugate symmetry of the integrand for real data.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

# unused here, but the benchmark's tracer patches conewave.green:_rk45.solve
from . import _rk45  # noqa: F401
from .errors import (DomainError, NearEigenvalueError, QuadratureError,
                     TruncationWarning)
from .model import potential_constant
# `integrate` is bound here by name: the benchmark's tracer patches
# conewave.green:integrate and conewave.green:build_kernel
from .radialode import RHO_MID, integrate, matching_wronskian, ode_residual

GEO_DEPTH = 24
GL_NODES = 12
EIGEN_GUARD = 1e-6
LAPLACE_RTOL = 2e-7   # RK45 tolerance of the contour resolvent solves
# most frequencies integrated in one batched solve, a cap for memory: wider
# caps take fewer RK45 steps but were no faster on 2 cores (README)
LAPLACE_BATCH = 500


@dataclass
class SourceTerm:
    """Inhomogeneity (f1, f2) with derivative access for f1."""

    f1: callable
    f1p: callable
    f2: callable

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


class PanelSums:
    """The panel sums sum_n K(s_n) u(s_n) of the composite rule for one
    batch of lam, K = w_n s^{d-1} (1-s^2)^{lam-1/2} / (2i) F_lam(s) at the
    nodes s_n of `_panel_layout`, formed from node values that
    `radialode.integrate` hands over block by block, so no (n_lam,
    n_nodes) array exists.  sums = (s0, s1) holds the (n_lam, n_panels)
    sums of u0 and u1; `add` adds those of any node values, one set or a
    stack of them, to an accumulator of that shape (`zeros`).
    """

    def __init__(self, d, lam_arr, src: SourceTerm, rho_out):
        self.bps, self.nodes, wts = _panel_layout(rho_out)
        self.lam = np.asarray(lam_arr, dtype=complex)
        # K = exp((lam - 1/2) log1m) (b0 + lam b1) at each node, with
        # w s^{d-1} / (2i) F_lam = b0 + lam b1
        self._log1m = np.log(1.0 - self.nodes * self.nodes)
        base = wts * self.nodes ** (d - 1.0) / 2.0j
        self._b0 = base * src.F_lambda(self.nodes, 0.0, d)
        self._b1 = base * src.f1(self.nodes)
        self.sums = self.zeros(2)
        self.s0, self.s1 = self.sums

    def zeros(self, *lead):
        return np.zeros(lead + (len(self.lam), len(self.bps) - 1),
                        dtype=complex)

    def add(self, acc, lo, u):
        """acc += the panel sums of K u, for u (..., n_lam, m) the values on
        the nodes lo .. lo + m - 1, which u is overwritten with K u."""
        hi = lo + u.shape[-1]
        if hi == lo:
            return
        k = np.multiply.outer(self.lam - 0.5, self._log1m[lo:hi])
        np.exp(k, out=k)
        u *= k
        np.multiply.outer(self.lam, self._b1[lo:hi], out=k)
        k += self._b0[lo:hi]
        u *= k
        first = lo // GL_NODES
        starts = np.arange(first * GL_NODES, hi, GL_NODES)
        starts[0] = lo
        acc[..., first:first + len(starts)] += np.add.reduceat(
            u, starts - lo, axis=-1)


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


def build_kernel(d: int, lam_arr, variant: str, pts, rtol: float, quad=None):
    """(u0, u0', u1, u1', c) on ascending pts in (0, 1), arrays (n_lam,
    n_pts), and with a `PanelSums` quad its panel sums of u0 and u1.

    u1 is the analytic-at-one solution and u0 the origin-regular one scaled
    by c (shape (n_lam, 1)) to the normalization of the module docstring,
    matched at the point of pts nearest 1/2; quad.s0 is scaled alike.  The
    origin series starts at 1, so c is also u0(0).
    """
    u0, u0p, u1, u1p = integrate(d, lam_arr, variant, pts, rtol, quad)
    c = _normalize_kernel(d, lam_arr, u0, u0p, u1, u1p, pts)
    u0 *= c
    u0p *= c
    if quad is not None:
        quad.s0 *= c
    return u0, u0p, u1, u1p, c


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
    it is normalized; on the quadrature nodes `integrate` forms only the
    panel sums of K u0 and K u1 (`PanelSums`).
    """
    lam_arr = np.asarray(lam_arr, dtype=complex)
    rho_out = np.asarray(rho_out, dtype=float)
    if np.any(rho_out < 0.0) or np.any(rho_out > 1.0):
        raise DomainError("output points must lie in [0, 1]")
    interior = (rho_out > 0.0) & (rho_out < 1.0)
    quad = PanelSums(d, lam_arr, src, rho_out[interior])

    pts = np.union1d(rho_out[interior], [RHO_MID])
    u0, u0p, u1, u1p, scale0 = build_kernel(d, lam_arr, variant, pts, rtol,
                                            quad)
    out_ix = np.searchsorted(pts, rho_out[interior])

    # running sums in place: column k integrates over the panels 0 .. k
    cums0 = np.cumsum(quad.s0, axis=1, out=quad.s0)
    cums1 = np.cumsum(quad.s1, axis=1, out=quad.s1)
    tot1 = cums1[:, -1:]
    # the panel that ends at each interior output point
    below = np.searchsorted(quad.bps, rho_out[interior]) - 1
    i0 = cums0[:, below]           # int_0^rho K u0
    i1 = tot1 - cums1[:, below]    # int_rho^1 K u1

    uo = np.zeros((len(lam_arr), len(rho_out)), dtype=complex)
    uop = np.zeros_like(uo)
    uo[:, interior] = u0[:, out_ix] * i1 + u1[:, out_ix] * i0
    uop[:, interior] = u0p[:, out_ix] * i1 + u1p[:, out_ix] * i0
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
# Laplace inversion
# ---------------------------------------------------------------------------


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
