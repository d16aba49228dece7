import math
import warnings

import numpy as np
import pytest

from conewave import collocation as co
from conewave import green as gr
from conewave import specfun as sf
from conewave.errors import (DomainError, NearEigenvalueError,
                             TruncationWarning)


def _poly_pair_source(d, lam):
    """f = (lam - L) u for u = (1 - r^2 + 0.3 r^4, 0.5 - r^2), with exact
    derivatives; returns (src, u1_exact, u2_exact)."""
    beta = (2.0 * d + d * d) / 4.0
    u1 = lambda r: 1.0 - np.asarray(r) ** 2 + 0.3 * np.asarray(r) ** 4
    u1p = lambda r: -2.0 * np.asarray(r) + 1.2 * np.asarray(r) ** 3
    u1pp = lambda r: -2.0 + 3.6 * np.asarray(r) ** 2
    u2 = lambda r: 0.5 - np.asarray(r) ** 2
    u2p = lambda r: -2.0 * np.asarray(r)

    def f1(r):
        return lam * u1(r) + np.asarray(r) * u1p(r) + (d - 2) / 2.0 * u1(r) - u2(r)

    def f1p(r):
        r = np.asarray(r)
        return lam * u1p(r) + u1p(r) + r * u1pp(r) + (d - 2) / 2.0 * u1p(r) - u2p(r)

    def f2(r):
        r = np.asarray(r, dtype=float)
        lap = np.where(r > 0,
                       u1pp(r) + (d - 1) * u1p(r) / np.where(r > 0, r, 1.0),
                       d * u1pp(0.0))
        return lam * u2(r) - lap + r * u2p(r) + d / 2.0 * u2(r) - beta * u1(r)

    return gr.SourceTerm(f1, f1p, f2), u1, u2


KERNEL_PTS = np.array([0.1, 0.35, 0.5, 0.55, 0.6, 0.9])


@pytest.fixture(scope="module")
def kernel_d4():
    return gr.build_kernel(4, [2.0], "perturbed", KERNEL_PTS, 1e-10)


class TestKernel:
    def test_near_eigenvalue_guard(self):
        with pytest.raises(NearEigenvalueError):
            gr.build_kernel(4, [1.0], "perturbed", KERNEL_PTS, 1e-10)

    def test_wronskian_normalization(self, kernel_d4):
        # W(u1, u0) rho^{d-1} (1-rho^2)^{1/2+lam} = 2i across the interval
        d, lam = 4, 2.0
        u0, u0p, u1, u1p, _ = kernel_d4
        for k, r in enumerate(KERNEL_PTS):
            w = ((u1[0, k] * u0p[0, k] - u1p[0, k] * u0[0, k])
                 * r ** (d - 1) * (1 - r * r) ** (0.5 + lam))
            assert abs(w - 2.0j) <= 1e-8 * 2.0

    def test_continuity_across_diagonal(self):
        a = gr.green_eval(4, 2.0, "perturbed", 0.4, 0.4 + 1e-12)
        b = gr.green_eval(4, 2.0, "perturbed", 0.4 + 1e-12, 0.4)
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_jump_relation(self, kernel_d4):
        # (1-s^2) [d_rho G jump across rho=s] = -1, where the jump is
        # weight(s) (u0 u1' - u0' u1)(s)
        s = 0.55
        k = int(np.searchsorted(KERNEL_PTS, s))
        u0, u0p, u1, u1p, _ = kernel_d4
        weight = gr._kernel_weight(4, np.array([2.0 + 0.0j]), s)[0, 0]
        jump = weight * (u0[0, k] * u1p[0, k] - u0p[0, k] * u1[0, k])
        assert abs((1 - s * s) * jump + 1.0) <= 1e-6

    def test_free_and_perturbed_differ(self):
        lam = 0.1 + 5.0j
        gf = gr.green_eval(4, lam, "free", 0.3, 0.6)
        gp = gr.green_eval(4, lam, "perturbed", 0.3, 0.6)
        assert abs(gf - gp) > 1e-3

    def test_self_consistency_doubled_tolerance(self):
        a = gr.green_eval(4, 2.0, "perturbed", 0.3, 0.6, rtol=1e-10)
        b = gr.green_eval(4, 2.0, "perturbed", 0.3, 0.6, rtol=5e-11)
        assert abs(a - b) <= 1e-7 * abs(a)

    def test_free_kernel_reproduces_hypergeometric(self):
        # u0 of the free variant is proportional to 2F1(a_f, b_f; d/2; rho^2)
        d, lam = 4, 0.2 + 1.5j
        rr = np.linspace(0.1, 0.9, 9)
        vals = gr.build_kernel(d, [lam], "free", rr, 1e-10)[0][0]
        a, b, c = sf.hypergeo_params(d, lam, "free")
        ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
        ratio = vals / ref
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-8 * abs(ratio[0])

    def test_green_eval_over_lambda_array(self):
        # batch members share one step size, so rows agree with single-lam
        # solves to ~rtol; a tight rtol makes that difference negligible
        lams = np.array([0.1 + 5.0j, 2.0, 0.1 + 40.0j])
        for variant in ("free", "perturbed"):
            for rho, s in ((0.3, 0.6), (0.7, 0.2)):
                g = gr.green_eval(4, lams, variant, rho, s, rtol=1e-13)
                assert g.shape == (3,)
                for lam, val in zip(lams, g):
                    ref = gr.green_eval(4, lam, variant, rho, s, rtol=1e-13)
                    assert abs(val - ref) <= 1e-12 * abs(ref)


class TestResolvent:
    def test_forward_operator_oracle(self):
        src, u1e, u2e = _poly_pair_source(4, 2.0)
        rho = np.linspace(0.0, 1.0, 21)
        sol = gr.resolvent_apply(4, 2.0, "perturbed", src, rho, rtol=1e-10)
        assert np.max(np.abs(sol.u1 - u1e(rho))) <= 1e-6
        assert np.max(np.abs(sol.u2 - u2e(rho))) <= 1e-6

    def test_zero_source(self):
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        sol = gr.resolvent_apply(4, 2.0, "perturbed", gr.SourceTerm(z, z, z),
                                 np.linspace(0.1, 0.9, 5))
        assert np.max(np.abs(sol.u1)) == 0.0

    def test_residual_checks(self):
        src, _, _ = _poly_pair_source(4, 2.0)
        out = gr.residual_checks(4, 2.0, "perturbed", src,
                                 np.linspace(0.08, 0.92, 15))
        assert out["ode_residual"] <= 1e-6
        assert out["round_trip"] <= 1e-6

    def test_smooth_rhs_example(self):
        # lam=2, d=4, f=(1-rho^2, 0): residual check passes
        src = gr.SourceTerm(
            lambda r: 1.0 - np.asarray(r) ** 2,
            lambda r: -2.0 * np.asarray(r),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        out = gr.residual_checks(4, 2.0, "perturbed", src,
                                 np.linspace(0.1, 0.9, 9))
        assert out["ode_residual"] <= 1e-6

    def test_resolvent_identity(self):
        # R(lam) f - R(mu) f = (mu - lam) R(lam) R(mu) f (first components)
        d = 4
        disc = co.build(d, 48)
        lam, mu = 2.0, 1.4  # lam - 1/2 nonintegral keeps both traces regular
        src, _, _ = _poly_pair_source(d, 2.0)
        rho = disc.nodes
        r_lam = gr.resolvent_apply(d, lam, "perturbed", src, rho, rtol=1e-10)
        r_mu = gr.resolvent_apply(d, mu, "perturbed", src, rho, rtol=1e-10)
        inner = gr.SourceTerm.from_grid(disc, (np.real(r_mu.u1), np.real(r_mu.u2)))
        r_both = gr.resolvent_apply(d, lam, "perturbed", inner, rho, rtol=1e-10)
        lhs = r_lam.u1 - r_mu.u1
        rhs = (mu - lam) * r_both.u1
        scale = np.max(np.abs(r_lam.u1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-5 * scale


class TestKernelDecay:
    def test_decay_scan(self):
        rep = gr.kernel_decay_scan(4, 0.3, 0.6, [5.0, 10.0, 20.0, 40.0])
        assert rep["monotone"]
        assert rep["slope"] <= -0.7

    def test_zero_frequency_finite(self):
        val = abs(gr.green_eval(4, 0.1, "perturbed", 0.3, 0.6)
                  - gr.green_eval(4, 0.1, "free", 0.3, 0.6))
        assert math.isfinite(val) and val > 0

    def test_one_kernel_build_per_variant(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return build(*args)

        build = gr.build_kernel
        monkeypatch.setattr(gr, "build_kernel", counted)
        gr.kernel_decay_scan(4, 0.3, 0.6, [5.0, 10.0, 20.0, 40.0])
        assert sorted(calls) == ["free", "perturbed"]

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            gr.kernel_decay_scan(4, 0.0, 0.6, [5.0])


class TestSemigroupLaplace:
    def _source(self, d, disc):
        f1 = lambda r: np.exp(-np.asarray(r) ** 2) * (1.0 - np.asarray(r) ** 2)
        f1p = lambda r: np.exp(-np.asarray(r) ** 2) * (
            -2.0 * np.asarray(r) * (1.0 - np.asarray(r) ** 2) - 2.0 * np.asarray(r))
        f2 = lambda r: 0.4 - 0.2 * np.asarray(r) ** 2
        fgrid = disc.stack(f1(disc.nodes), f2(disc.nodes))
        c = float(np.real(disc.mode_coefficient(fgrid)))
        src = gr.SourceTerm(
            lambda r: f1(r) - 2.0 * c, f1p, lambda r: f2(r) - d * c)
        return src, fgrid - disc.P_mat @ fgrid

    def test_tau_zero_recovers_data(self):
        d = 4
        disc = co.build(d, 48)
        src, phi0 = self._source(d, disc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            out = gr.semigroup_laplace(d, 0.0, src, disc.nodes,
                                       omega_max=50.0, domega=0.1)
        w = np.maximum(disc.quad_weights, 0.0)
        num = math.sqrt(float(np.sum(w * (out - phi0[:48]) ** 2)))
        den = math.sqrt(float(np.sum(w * phi0[:48] ** 2)))
        assert num / den <= 5e-2

    def test_linearity_and_realness(self):
        d = 4
        disc = co.build(d, 48)
        src, _ = self._source(d, disc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            a = gr.semigroup_laplace(d, 0.5, src, disc.nodes,
                                     omega_max=20.0, domega=0.2)
            src2 = gr.SourceTerm(
                lambda r: 3.0 * src.f1(r), lambda r: 3.0 * src.f1p(r),
                lambda r: 3.0 * src.f2(r))
            b = gr.semigroup_laplace(d, 0.5, src2, disc.nodes,
                                     omega_max=20.0, domega=0.2)
        assert np.max(np.abs(b - 3.0 * a)) <= 1e-12 * np.max(np.abs(a))
        assert np.isrealobj(a)

    @pytest.mark.parametrize("omega_max, domega, n_nodes",
                             [(100.0, 0.2, 501), (200.0, 0.05, 4001)])
    def test_equal_batches(self, monkeypatch, omega_max, domega, n_nodes):
        sizes = []

        def stub(d, lam, variant, src, rho_out, rtol):
            sizes.append(len(lam))
            z = np.zeros((len(lam), len(rho_out)), dtype=complex)
            return z, z, z

        monkeypatch.setattr(gr, "_resolvent_batch", stub)
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        gr.semigroup_laplace(4, 1.0, gr.SourceTerm(z, z, z),
                             np.linspace(0.0, 1.0, 5), eps=0.4,
                             omega_max=omega_max, domega=domega)
        assert sum(sizes) == n_nodes
        assert max(sizes) <= 500
        assert max(sizes) - min(sizes) <= 1

    def test_contour_domain(self):
        d = 4
        disc = co.build(d, 48)
        src, _ = self._source(d, disc)
        with pytest.raises(DomainError):
            gr.semigroup_laplace(d, 1.0, src, disc.nodes, eps=0.7)


class TestPerturbedBessel:
    def test_model_residual_and_wronskian(self):
        rho = np.geomspace(2e-3, 0.35, 25)
        rep = gr.perturbed_bessel_check(3, 0.1 + 3.0j, rho)
        assert rep["model_residual"] <= 1e-7
        assert rep["wronskian_error"] <= 1e-8

    def test_ratio_rate(self):
        rho = np.geomspace(2e-3, 0.35, 25)
        rep = gr.perturbed_bessel_check(3, 0.1 + 3.0j, rho)
        assert abs(rep["rate_slope"] - 2.0) <= 0.3

    def test_other_dimension(self):
        rho = np.geomspace(2e-3, 0.3, 20)
        rep = gr.perturbed_bessel_check(4, 0.05 + 2.0j, rho)
        assert rep["model_residual"] <= 1e-7
        assert rep["wronskian_error"] <= 1e-8
