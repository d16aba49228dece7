import math

import numpy as np
import pytest
import scipy.linalg

from conewave import collocation as co
from conewave.errors import DegenerateEigenvalueError, DomainError


@pytest.fixture(scope="module")
def disc4():
    return co.build(4, 64)


@pytest.fixture(scope="module")
def disc4_fine():
    return co.build(4, 128)


class TestGridAndDerivatives:
    def test_nodes(self, disc4):
        rho = disc4.nodes
        assert rho[0] == 0.0 and rho[-1] == 1.0
        assert len(rho) == 64
        assert np.all(np.diff(rho) > 0)

    @pytest.mark.parametrize("deg", [3, 7, 11])
    def test_odd_polynomial_exactness(self, disc4, deg):
        rho = disc4.nodes
        err = np.max(np.abs(disc4.D1_odd @ rho**deg - deg * rho ** (deg - 1)))
        assert err <= 1e-10

    @pytest.mark.parametrize("deg", [2, 6, 10])
    def test_even_polynomial_exactness(self, disc4, deg):
        rho = disc4.nodes
        err = np.max(np.abs(disc4.D1 @ rho**deg - deg * rho ** (deg - 1)))
        assert err <= 1e-10

    def test_second_derivative(self, disc4):
        rho = disc4.nodes
        err = np.max(np.abs(disc4.D2 @ rho**6 - 30.0 * rho**4))
        assert err <= 1e-7

    def test_quadrature_exactness(self, disc4):
        rho = disc4.nodes
        w = disc4.quad_weights
        # int_0^1 rho^{2k} rho^3 drho = 1/(2k+4)
        for k in (0, 1, 5, 30):
            assert abs(np.sum(w * rho ** (2 * k)) - 1.0 / (2 * k + 4)) <= 1e-12

    def test_grid_size_gate(self):
        with pytest.raises(DomainError):
            co.build(4, 8)
        with pytest.raises(DomainError):
            co.build(4, 600)


class TestOperator:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_gauge_eigenrelation(self, d):
        disc = co.build(d, 64)
        assert co.gauge_residual(disc) <= 1e-10

    def test_split_is_exact(self, disc4):
        assert np.array_equal(disc4.L_mat, disc4.L0_mat + disc4.Lprime_mat)

    def test_symbolic_application(self, disc4):
        # L0 applied to (1 - rho^2, 0): first slot -rho(-2rho) - (d-2)/2 (1-rho^2),
        # second slot -2 - (d-1) 2 = -2d
        d = 4
        rho = disc4.nodes
        u = disc4.stack(1.0 - rho**2, np.zeros_like(rho))
        out = disc4.L0_mat @ u
        exp1 = 2.0 * rho**2 - (d - 2) / 2.0 * (1.0 - rho**2)
        exp2 = np.full_like(rho, -2.0 * d)
        assert np.max(np.abs(out[:64] - exp1)) <= 1e-8
        assert np.max(np.abs(out[64:] - exp2)) <= 1e-8

    def test_denser_polynomial_application(self, disc4):
        # degree-10 data applied through L matches the symbolic operator
        d = 4
        rho = disc4.nodes
        u1 = 1.0 - 0.8 * rho**4 + 0.5 * rho**10
        du1 = -3.2 * rho**3 + 5.0 * rho**9
        ddu1 = -9.6 * rho**2 + 45.0 * rho**8
        u2 = rho**2 - 0.25
        du2 = 2.0 * rho
        out = disc4.L_mat @ disc4.stack(u1, u2)
        lap = ddu1.copy()
        lap[1:] += (d - 1) / rho[1:] * du1[1:]
        lap[0] += (d - 1) * ddu1[0]
        exp1 = -rho * du1 - (d - 2) / 2.0 * u1 + u2
        exp2 = lap - rho * du2 - d / 2.0 * u2 + (2 * d + d * d) / 4.0 * u1
        assert np.max(np.abs(out[:64] - exp1)) <= 1e-8
        assert np.max(np.abs(out[64:] - exp2)) <= 1e-8


class TestEnergyProduct:
    def test_closed_form_anchor(self, disc4):
        rho = disc4.nodes
        u = disc4.stack(rho**2, np.zeros_like(rho))
        val = co.energy_product(disc4, u, u).real
        assert val == pytest.approx(4.0 / 6.0 + 1.0, abs=1e-12)

    def test_conjugate_symmetry(self, disc4):
        rng = np.random.default_rng(0)
        u = co.random_smooth_pair(disc4, rng) + 1j * co.random_smooth_pair(disc4, rng)
        v = co.random_smooth_pair(disc4, rng) + 1j * co.random_smooth_pair(disc4, rng)
        a = co.energy_product(disc4, u, v)
        b = co.energy_product(disc4, v, u)
        assert abs(a - np.conj(b)) <= 1e-12 * abs(a)

    def test_zero_pair(self, disc4):
        z = np.zeros(128)
        assert co.energy_product(disc4, z, z) == 0.0
        assert co.energy_norm(disc4, z) == 0.0

    def test_constant_pair_boundary_only(self, disc4):
        u = disc4.stack(np.ones(64), np.zeros(64))
        assert co.energy_norm(disc4, u) == pytest.approx(1.0, abs=1e-12)
        assert co.sobolev_norm(disc4, u) > 0.0


class TestDissipativity:
    def test_rayleigh_bound(self, disc4):
        assert co.dissipativity_check(disc4, 100, seed=1) <= 1e-8

    def test_gauge_pair_strictly_negative(self, disc4):
        g = disc4.g_disc
        val = co.energy_product(disc4, disc4.L0_mat @ g, g).real \
            / co.energy_product(disc4, g, g).real
        assert val < 0.0

    def test_scaling_invariance(self, disc4):
        rng = np.random.default_rng(3)
        u = co.random_smooth_pair(disc4, rng)
        q1 = co.energy_product(disc4, disc4.L0_mat @ u, u).real \
            / co.energy_product(disc4, u, u).real
        u2 = 2.0 * u
        q2 = co.energy_product(disc4, disc4.L0_mat @ u2, u2).real \
            / co.energy_product(disc4, u2, u2).real
        assert q1 == pytest.approx(q2, rel=1e-12)


class TestNormEquivalence:
    def test_bounded_ratios_and_refinement(self, disc4, disc4_fine):
        lo1, hi1 = co.norm_equivalence_check(disc4, 100, seed=2)
        lo2, hi2 = co.norm_equivalence_check(disc4_fine, 100, seed=2)
        assert 0.0 < lo1 < hi1 < 10.0
        assert abs(lo1 - lo2) <= 0.1 * lo1

        assert abs(hi1 - hi2) <= 0.1 * hi1


class TestSpectrum:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_unstable_set(self, d):
        disc = co.build(d, 64)
        disc_fine = co.build(d, 128)
        roots = co.unstable_eigenvalues(disc, disc_fine)
        assert len(roots) == 1
        assert abs(roots[0] - 1.0) <= 1e-8

    def test_stationary_under_refinement(self, disc4, disc4_fine):
        e1 = np.linalg.eigvals(disc4.L_mat)
        e2 = np.linalg.eigvals(disc4_fine.L_mat)
        l1 = e1[np.argmin(np.abs(e1 - 1.0))]
        l2 = e2[np.argmin(np.abs(e2 - 1.0))]
        assert abs(l1 - l2) <= 1e-10

    def test_simple_kernel(self, disc4):
        # the gap rule of collocation._gauge_projection: the smallest
        # singular value of L - 1 lies KERNEL_GAP below the next one
        for disc in (disc4, co.build(4, 144)):
            n2 = 2 * disc.N
            sv = scipy.linalg.svdvals(disc.L_mat - np.eye(n2))
            assert sv[-1] * co.KERNEL_GAP <= sv[-2], (disc.N, sv[-2:])

    def test_polish_returns_exact_eigenvalue(self):
        # the shift lam + 1e-12 hits a diagonal entry exactly, so the
        # solve meets an exactly singular matrix and lam is kept as is
        lam = 1.0 + 2.0j
        lm = np.diag([lam + 1e-12, 3.0, 5.0 + 1.0j])
        assert co._polish_eigenvalue(lm, lam) == lam

    def test_spurious_modes_move(self, disc4, disc4_fine):
        physical, raw = co.discrete_spectrum(disc4, disc4_fine)
        raw_fine = np.linalg.eigvals(disc4_fine.L_mat)
        spurious = [z for z in raw if min(abs(z - w) for w in physical) > 1e-4]
        moved = sum(1 for z in spurious[:20]
                    if np.min(np.abs(raw_fine - z)) > 1e-4)
        assert moved >= len(spurious[:20]) * 3 // 4


class TestKernelGap:
    @pytest.mark.parametrize("d, N", [(d, N) for N in (144, 512)
                                      for d in (3, 4, 5, 6)] + [(4, 256)])
    def test_large_grids_build(self, d, N):
        disc = co.build(d, N)
        y, lm = disc.adjoint_functional, disc.L_mat
        assert np.max(np.abs(y @ lm - y)) <= 1e-8 * np.max(np.abs(y))
        assert disc.mode_coefficient(disc.g_disc) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(disc.P_mat @ disc.g_disc - disc.g_disc)) <= 1e-12

    @staticmethod
    def _conjugated(eigenvalues):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((40, 40)))
        return q @ np.diag(eigenvalues) @ q.T

    def test_double_kernel_raises(self):
        lm = self._conjugated(np.r_[1.0, 1.0, np.linspace(2.0, 40.0, 38)])
        with pytest.raises(DegenerateEigenvalueError, match="not one-dim"):
            co._gauge_projection(lm, np.ones(40))

    def test_no_kernel_raises(self):
        lm = self._conjugated(np.linspace(2.0, 41.0, 40))
        with pytest.raises(DegenerateEigenvalueError):
            co._gauge_projection(lm, np.ones(40))

    def test_simple_kernel_passes(self):
        lm = self._conjugated(np.r_[1.0, np.linspace(2.0, 40.0, 39)])
        y, _ = co._gauge_projection(lm, np.ones(40))
        assert np.max(np.abs(y @ lm - y)) <= 1e-10 * np.max(np.abs(y))


class TestProjection:
    def test_idempotent(self, disc4):
        p = disc4.P_mat
        assert np.max(np.abs(p @ p - p)) <= 1e-10

    def test_fixes_gauge_mode(self, disc4):
        assert np.max(np.abs(disc4.P_mat @ disc4.g_disc - disc4.g_disc)) <= 1e-10

    def test_rank_one(self, disc4):
        assert np.linalg.matrix_rank(disc4.P_mat, tol=1e-8) == 1

    def test_commutes_with_operator(self, disc4):
        comm = disc4.P_mat @ disc4.L_mat - disc4.L_mat @ disc4.P_mat
        assert np.max(np.abs(comm)) <= 1e-8

    def test_annihilates_complement(self, disc4):
        rng = np.random.default_rng(9)
        f = co.random_smooth_pair(disc4, rng)
        out = disc4.P_mat @ (f - disc4.P_mat @ f)
        assert np.max(np.abs(out)) <= 1e-10 * np.max(np.abs(f))

    def test_mode_coefficient_normalization(self, disc4):
        assert disc4.mode_coefficient(disc4.g_disc) == pytest.approx(1.0, abs=1e-12)


class TestInterpolation:
    def test_round_trip(self, disc4):
        rho = disc4.nodes
        vals = np.exp(-rho**2) * (1 + rho**4)
        c = co.even_cheb_coeffs(disc4, vals)
        out, dout = co.even_cheb_eval(c, rho)
        assert np.max(np.abs(out - vals)) <= 1e-12
        dref = np.exp(-rho**2) * (-2 * rho * (1 + rho**4) + 4 * rho**3)
        assert np.max(np.abs(dout - dref)) <= 1e-9


class TestStackedDiagnostics:
    """One call on a stack of states equals the per-state calls."""

    @pytest.mark.parametrize("complex_states", [False, True])
    def test_stack_matches_per_state(self, disc4, complex_states):
        rng = np.random.default_rng(12)
        states = np.array([co.random_smooth_pair(disc4, rng) for _ in range(7)])
        if complex_states:
            states = states + 1j * np.array(
                [co.random_smooth_pair(disc4, rng) for _ in range(7)])
        cases = {
            "energy_norm": lambda u: co.energy_norm(disc4, u),
            "mode_coefficient": disc4.mode_coefficient,
            "even_cheb_coeffs": lambda u: co.even_cheb_coeffs(disc4, u[..., :64]),
        }
        for name, fn in cases.items():
            stacked = fn(states)
            single = np.array([fn(u) for u in states])
            assert stacked.shape == single.shape, name
            err = np.max(np.abs(stacked - single))
            assert err <= 1e-14 * np.max(np.abs(single)), name

    def test_single_state_stays_scalar(self, disc4):
        u = co.random_smooth_pair(disc4, np.random.default_rng(13))
        assert isinstance(co.energy_norm(disc4, u), float)
        assert isinstance(co.energy_product(disc4, u, u), complex)
        assert np.ndim(disc4.mode_coefficient(u)) == 0
