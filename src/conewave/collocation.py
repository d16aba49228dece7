"""Spectral collocation of the linearized operators on [0, 1].

Grid and parity
---------------
Radial fields are smooth even functions of rho, so they are represented
on the upper half of a Chebyshev-Lobatto grid of order M = 2(N-1):
rho_i = sin(i pi / M), i = 0..N-1 (ascending, containing both endpoints).
Differentiation acts through the even/odd folded matrices of the full
[-1, 1] grid, which keeps interpolation perfectly conditioned and removes
the coordinate singularity: at rho=0 the (d-1)/rho d_rho term is replaced
by its even-function limit (d-1) d_rho^2.

No boundary condition is imposed at rho=1: the principal coefficient of
the underlying wave operator degenerates there, and the collocation rows
at rho=1 close with one-sided (interior) data only.

Operators
---------
    L0 u = (-rho u1' - (d-2)/2 u1 + u2,
            u1'' + (d-1)/rho u1' - rho u2' - d/2 u2)
    L'u = (0, (2d+d^2)/4 u1),     L = L0 + L'.

The pair g = (2, d) satisfies L g = g identically; the assembly enforces
the corresponding row sums exactly (block-row sums are absorbed into the
smallest off-diagonal entry using compensated summation), so the discrete
gauge residual sits at the 1e-13 level rather than the matrix-norm noise
level.

The energy inner product is
    (u|v)_E = int u1' conj(v1') rho^{d-1} + int u2 conj(v2) rho^{d-1}
              + u1(1) conj(v1(1)),
with the weighted integrals done by an exact Clenshaw-Curtis-type rule:
even polynomials of degree <= 2(N-1) integrate exactly against rho^{d-1}.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateEigenvalueError, DomainError,
                     EigensolverFailure)
from .model import check_dimension, potential_constant


def _cheb_full(m: int):
    """Chebyshev differentiation matrix on x_j = cos(j pi / m), j=0..m."""
    x = np.cos(np.pi * np.arange(m + 1) / m)
    c = np.ones(m + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(m + 1)
    dx = x[:, None] - x[None, :]
    dmat = np.outer(c, 1.0 / c) / (dx + np.eye(m + 1))
    dmat -= np.diag(dmat.sum(axis=1))
    return x, dmat


def _folded_derivatives(n_half: int):
    """(rho ascending, D_even, D_odd) on rho_i = sin(i pi / (2 n_half)).

    D_even differentiates even extensions (values of u at rho >= 0),
    D_odd differentiates odd extensions (value at rho=0 is structurally 0).
    """
    m = 2 * n_half
    x, dmat = _cheb_full(m)
    n = n_half
    de = np.empty((n + 1, n + 1))
    do = np.empty((n + 1, n + 1))
    for j in range(n):
        de[:, j] = dmat[: n + 1, j] + dmat[: n + 1, m - j]
        do[:, j] = dmat[: n + 1, j] - dmat[: n + 1, m - j]
    de[:, n] = dmat[: n + 1, n]
    do[:, n] = 0.0
    # reorder from descending x to ascending rho; snap cos(pi/2) to 0
    rev = np.arange(n, -1, -1)
    rho = x[: n + 1][rev].copy()
    rho[0] = 0.0
    return rho, de[rev][:, rev], do[rev][:, rev]


def _cheb_analysis(n: int):
    """Analysis matrix: f(z_j), z_j = cos(j pi/n) -> Chebyshev coefficients."""
    j = np.arange(n + 1)
    cmat = np.cos(np.pi * np.outer(j, j) / n) * (2.0 / n)
    cmat[:, 0] *= 0.5
    cmat[:, -1] *= 0.5
    cmat[0] *= 0.5
    cmat[-1] *= 0.5
    return cmat


def _weighted_cc_weights(rho, d: int):
    """Weights with sum_i w_i f(rho_i) = int_0^1 f rho^{d-1} drho.

    Exact for even polynomials f of degree <= 2n via the substitution
    z = 2 rho^2 - 1 (the rho grid maps onto the Lobatto z grid) and exact
    Gauss-Legendre moments of the Chebyshev basis in z.
    """
    n = len(rho) - 1
    cmat = _cheb_analysis(n)
    # moments m_k = int_0^1 T_k(2 rho^2 - 1) rho^{d-1} drho
    gl_x, gl_w = np.polynomial.legendre.leggauss(n + 10)
    t = 0.5 * (gl_x + 1.0)
    z = 2.0 * t * t - 1.0
    tk = np.empty((n + 1, len(t)))
    tk[0] = 1.0
    tk[1] = z
    for k in range(2, n + 1):
        tk[k] = 2.0 * z * tk[k - 1] - tk[k - 2]
    mom = 0.5 * tk @ (gl_w * t ** (d - 1.0))
    w_z = cmat.T @ mom  # indexed by z_j = cos(j pi / n), i.e. descending z
    # rho_i = sin(i pi / 2n) corresponds to z index n - i
    return w_z[::-1].copy()


def _two_sum_err(a: float, b: float) -> float:
    """Exact rounding error of fl(a + b) (Knuth two-sum)."""
    s = a + b
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _absorb_row_sums(block: np.ndarray, target):
    """Adjust one small entry per row so exact row sums equal `target`.

    target may be a scalar or a per-row array.  The deficit is computed
    with math.fsum and subtracted from the smallest-magnitude off-diagonal
    entry, which represents the correction with at most one ulp of that
    small entry.
    """
    n = block.shape[0]
    tgt = np.broadcast_to(np.asarray(target, dtype=float), (n,))
    for i in range(n):
        row = block[i]
        deficit = math.fsum(row) - tgt[i]
        if deficit == 0.0:
            continue
        order = np.argsort(np.abs(row))
        k = int(order[0])
        if k == i and len(order) > 1:
            k = int(order[1])
        row[k] -= deficit
        resid = math.fsum(row) - tgt[i]
        if resid != 0.0:
            row[k] -= resid


@dataclass
class SpectralDiscretization:
    """Collocation grid, folded derivatives, operators, energy form, projection."""

    d: int
    N: int
    nodes: np.ndarray
    D1: np.ndarray          # even-acting first derivative
    D1_odd: np.ndarray      # odd-acting first derivative
    D2: np.ndarray          # even-acting second derivative
    quad_weights: np.ndarray
    L0_mat: np.ndarray
    Lprime_mat: np.ndarray
    L_mat: np.ndarray
    g_disc: np.ndarray
    adjoint_functional: np.ndarray = field(repr=False)  # y with y^H g = 1
    P_mat: np.ndarray = field(repr=False)

    def split(self, u):
        u = np.asarray(u)
        return u[..., : self.N], u[..., self.N:]

    def stack(self, u1, u2):
        return np.concatenate([np.asarray(u1), np.asarray(u2)])

    def mode_coefficient(self, u):
        """<u, w>_E with the normalization <g, w>_E = 1, per state of a stack."""
        return np.asarray(u) @ self.adjoint_functional


def _assemble_blocks(d: int, rho, de, d2e, perturbed: bool):
    n1 = len(rho)
    beta = potential_constant(d)
    a11 = -rho[:, None] * de
    np.fill_diagonal(a11, a11.diagonal() - (d - 2.0) / 2.0)
    a12 = np.eye(n1)
    a21 = d2e.copy()
    a21[0] *= float(d)  # l'Hopital limit of u'' + (d-1)/rho u' at rho=0
    a21[1:] += (d - 1.0) / rho[1:, None] * de[1:]
    a22 = -rho[:, None] * de
    np.fill_diagonal(a22, a22.diagonal() - d / 2.0)

    _absorb_row_sums(a11, -(d - 2.0) / 2.0)
    _absorb_row_sums(a22, -d / 2.0)
    if not perturbed:
        _absorb_row_sums(a21, 0.0)
    else:
        # pre-compensate the rounding of the upcoming diagonal addition
        delta = np.array([_two_sum_err(a21[i, i], beta) for i in range(n1)])
        _absorb_row_sums(a21, -delta)
        np.fill_diagonal(a21, a21.diagonal() + beta)
    top = np.hstack([a11, a12])
    bot = np.hstack([a21, a22])
    return np.vstack([top, bot])


def build(d: int, N: int) -> SpectralDiscretization:
    """Assemble the discretization at grid size N (16 <= N <= 512)."""
    check_dimension(d)
    if not (16 <= N <= 512):
        raise DomainError("grid size N must lie in [16, 512]")
    rho, de, do = _folded_derivatives(N - 1)
    d2e = do @ de
    w = _weighted_cc_weights(rho, d)
    # nodes near rho=0 may carry exponentially tiny negative weights (the
    # measure rho^{d-1} vanishes there); only material negativity is an error
    if np.any(w < -1e-4 * np.max(w)):
        raise DomainError(f"negative quadrature weights at d={d}, N={N}")

    l0 = _assemble_blocks(d, rho, de, d2e, perturbed=False)
    lfull = _assemble_blocks(d, rho, de, d2e, perturbed=True)
    lprime = lfull - l0

    g_disc = np.concatenate([np.full(N, 2.0), np.full(N, float(d))])

    y, p_mat = _gauge_projection(lfull, g_disc)

    return SpectralDiscretization(
        d=d, N=N, nodes=rho, D1=de, D1_odd=do, D2=d2e, quad_weights=w,
        L0_mat=l0, Lprime_mat=lprime, L_mat=lfull, g_disc=g_disc,
        adjoint_functional=y, P_mat=p_mat,
    )


KERNEL_GAP = 1e3  # least ratio of the two smallest singular values of L - 1


def _gauge_projection(l_mat, g_disc):
    """Left eigenvector of L at eigenvalue 1 and the rank-1 projection.

    ker(L - 1) counts as one-dimensional when the smallest singular value
    of L - 1 lies a factor KERNEL_GAP below the next one.  For d = 3..6
    the ratio is ~1e7 or more up to N 256 and 6e4 to 6e5 at N 512.  An
    absolute threshold scaled by the largest singular value (which grows
    like N^4) would also count the second one, which falls like N^-2.
    """
    n2 = l_mat.shape[0]
    sv = np.linalg.svd(l_mat - np.eye(n2), compute_uv=False)
    if not sv[-1] * KERNEL_GAP <= sv[-2]:
        raise DegenerateEigenvalueError(
            f"ker(L - 1) is not one-dimensional: the two smallest singular "
            f"values of L - 1 are {sv[-1]:.3e} and {sv[-2]:.3e}"
        )
    # inverse iteration on the transpose, seeded with g itself
    a = (l_mat - (1.0 + 1e-9) * np.eye(n2)).T
    y = g_disc.astype(float).copy()
    for _ in range(4):
        y = np.linalg.solve(a, y)
        y /= np.linalg.norm(y)
    y = y / np.dot(y, g_disc)
    p_mat = np.outer(g_disc, y)
    return y, p_mat


# ---------------------------------------------------------------------------
# residuals, norms, checks
# ---------------------------------------------------------------------------


def gauge_residual(disc: SpectralDiscretization) -> float:
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


def energy_product(disc: SpectralDiscretization, u, v):
    """(u|v)_E = int u1' conj(v1') rho^{d-1} + int u2 conj(v2) rho^{d-1}
    + u1(1) conj(v1(1)); an array for stacks of states (leading axis)."""
    u1, u2 = disc.split(u)
    v1, v2 = disc.split(v)
    du = (disc.D1 @ u1.T).T
    dv = (disc.D1 @ v1.T).T
    w = disc.quad_weights
    out = (np.sum(w * du * np.conj(dv), axis=-1)
           + np.sum(w * u2 * np.conj(v2), axis=-1))
    out = out + u1[..., -1] * np.conj(v1[..., -1])
    return complex(out) if out.ndim == 0 else out


def energy_norm(disc: SpectralDiscretization, u):
    """sqrt((u|u)_E); an array for stacks of states (leading axis)."""
    out = np.sqrt(np.maximum(np.real(energy_product(disc, u, u)), 0.0))
    return float(out) if out.ndim == 0 else out


def sobolev_norm(disc: SpectralDiscretization, u) -> float:
    """Radial H^1 x L^2 norm (no solid-angle factor)."""
    u1, u2 = disc.split(u)
    du = disc.D1 @ u1
    w = disc.quad_weights
    val = np.sum(w * (np.abs(u1) ** 2 + np.abs(du) ** 2 + np.abs(u2) ** 2))
    return math.sqrt(float(val.real))


def random_smooth_pair(disc: SpectralDiscretization, rng):
    """Random even-polynomial pair of degree 12 on the grid, O(1) normalized."""
    rho = disc.nodes
    ncoef = 7
    c1 = rng.standard_normal(ncoef)
    c2 = rng.standard_normal(ncoef)
    r2 = rho * rho
    u1 = np.polynomial.polynomial.polyval(r2, c1)
    u2 = np.polynomial.polynomial.polyval(r2, c2)
    return disc.stack(u1, u2)


def dissipativity_check(disc: SpectralDiscretization, n_samples: int = 100,
                        seed: int = 0) -> float:
    """max over random smooth pairs of Re (L0 u | u)_E / ||u||_E^2."""
    if n_samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_samples):
        u = random_smooth_pair(disc, rng)
        lu = disc.L0_mat @ u
        q = energy_product(disc, lu, u).real / energy_product(disc, u, u).real
        worst = max(worst, q)
    return worst


def norm_equivalence_check(disc: SpectralDiscretization, n_samples: int = 100,
                           seed: int = 0):
    """(min, max) of ||u||_E / ||u||_{H1 x L2} over random smooth pairs."""
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(n_samples):
        u = random_smooth_pair(disc, rng)
        r = energy_norm(disc, u) / sobolev_norm(disc, u)
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


def discrete_spectrum(disc: SpectralDiscretization,
                      disc_fine: SpectralDiscretization):
    """Eigenvalues of L_mat filtered by stability under N -> 2N.

    Returns (physical, raw): eigenvalues that move by at most 1e-4 when
    recomputed on the companion grid, and the full raw list.
    """
    try:
        ev = np.linalg.eigvals(disc.L_mat)
        ev_fine = np.linalg.eigvals(disc_fine.L_mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverFailure(str(exc)) from exc
    physical = []
    for lam in ev:
        if np.min(np.abs(ev_fine - lam)) <= 1e-4:
            physical.append(complex(lam))
    physical.sort(key=lambda z: (-z.real, z.imag))
    return physical, np.sort_complex(ev)


def unstable_eigenvalues(disc, disc_fine, re_min: float = 0.05,
                         im_max: float = 50.0):
    """Filtered eigenvalues in {Re >= re_min, |Im| <= im_max}, polished.

    Each candidate is refined by inverse iteration on the fine grid so the
    reported location does not inherit dense-solver noise.
    """
    physical, _ = discrete_spectrum(disc, disc_fine)
    out = []
    for lam in physical:
        if lam.real >= re_min and abs(lam.imag) <= im_max:
            out.append(_polish_eigenvalue(disc_fine.L_mat, lam))
    dedup = []
    for lam in out:
        if not any(abs(lam - z) < 1e-8 for z in dedup):
            dedup.append(lam)
    dedup.sort(key=lambda z: (-z.real, z.imag))
    return dedup


def _polish_eigenvalue(l_mat, lam):
    n2 = l_mat.shape[0]
    lam = complex(lam)
    v = np.ones(n2, dtype=complex)
    for _ in range(3):
        try:
            v = np.linalg.solve(l_mat - (lam + 1e-12) * np.eye(n2), v)
        except np.linalg.LinAlgError:  # exactly singular: lam is exact
            return lam
        v /= np.linalg.norm(v)
        lam = complex(np.vdot(v, l_mat @ v))
    return lam


# ---------------------------------------------------------------------------
# interpolation off the grid (even-Chebyshev representation)
# ---------------------------------------------------------------------------


def even_cheb_coeffs(disc: SpectralDiscretization, values):
    """Coefficients c_k of u(rho) = sum_k c_k T_k(2 rho^2 - 1) from grid values.

    values may be a stack of grid functions (leading axis); the
    coefficients then stack the same way.
    """
    vals = np.asarray(values)[..., ::-1]  # reorder to z_j = cos(j pi / n)
    return (_cheb_analysis(disc.N - 1) @ vals.T).T


def even_cheb_eval(coeffs, rho):
    """Evaluate the even-Chebyshev series and its rho-derivative."""
    rho = np.asarray(rho, dtype=float)
    z = 2.0 * rho * rho - 1.0
    val = np.polynomial.chebyshev.chebval(z, coeffs)
    dcoef = np.polynomial.chebyshev.chebder(coeffs)
    dval = np.polynomial.chebyshev.chebval(z, dcoef) * 4.0 * rho
    return val, dval
