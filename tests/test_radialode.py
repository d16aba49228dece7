import math

import numpy as np
import pytest

from conewave import radialode as ro
from conewave import specfun as sf
from conewave.errors import DomainError, IndexCollisionError

PI_OVER_16 = 0.19634954084936208
TWO_FIFTEENTHS = 0.13333333333333333
# (d-2) rho^{1-d} (1-rho^2)^{-3/2} at d=3, rho=1/2
W_D3_HALF = 6.158402871356008


def _pochhammer_ratio(a, b, c, k):
    # coefficient of z^k in 2F1, computed independently
    num = den = 1.0 + 0.0j
    for j in range(k):
        num *= (a + j) * (b + j)
        den *= (c + j) * (1.0 + j)
    return num / den


class TestSeeds:
    @pytest.mark.parametrize("variant", ["free", "perturbed"])
    @pytest.mark.parametrize("lam", [1.0, 0.3 + 2.0j, 0.1 + 20.0j, 2.0])
    def test_origin_residual(self, variant, lam):
        ode = ro.SpectralODE(4, lam, variant)
        u, up, upp = ro.seed_origin(ode).eval2(np.asarray(ro.ORIGIN_START))
        res = ode.residual(ro.ORIGIN_START, u, up, upp)
        assert abs(res) <= 1e-12 * (abs(u) + abs(upp))

    @pytest.mark.parametrize("branch", ["analytic", "singular"])
    def test_one_residual(self, branch):
        for lam in (1.0, 0.3 + 2.0j, 0.1 + 20.0j):
            ode = ro.SpectralODE(5, lam, "perturbed")
            seed = ro.seed_one(ode, branch)
            x = np.asarray(1.0 - 1e-3)
            u, up, upp = seed.eval2(x)
            res = ode.residual(float(x), u, up, upp)
            assert abs(res) <= 1e-9 * (abs(u) + abs(upp) + 1.0)

    def test_gauge_series_is_constant(self):
        # perturbed lam=1: the H^1 branch is u == 1
        for d in (3, 4, 5, 6):
            seed = ro.seed_origin(ro.SpectralODE(d, 1.0, "perturbed"))
            assert seed.coefficients[0] == 1.0
            assert all(abs(c) == 0.0 for c in seed.coefficients[1:])

    def test_origin_matches_hypergeometric_coefficients(self):
        # free variant: u(rho) = 2F1(a_f, b_f; d/2; rho^2)
        for d, lam in ((4, 0.0), (3, 0.7 + 1.1j), (6, 0.2 - 3.0j)):
            seed = ro.seed_origin(ro.SpectralODE(d, lam, "free"))
            a, b, c = sf.hypergeo_params(d, lam, "free")
            for k in (1, 2, 3):
                ref = _pochhammer_ratio(a, b, c, k)
                assert abs(seed.coefficients[k] - ref) <= 1e-12 * (abs(ref) + 1)

    def test_singular_index(self):
        seed = ro.seed_one(ro.SpectralODE(4, 1.0, "perturbed"), "singular")
        assert seed.index == pytest.approx(-0.5)

    def test_analytic_normalization(self):
        seed = ro.seed_one(ro.SpectralODE(4, 0.3 + 1.0j, "perturbed"), "analytic")
        assert seed.coefficients[0] == 1.0

    def test_index_collision(self):
        with pytest.raises(IndexCollisionError):
            ro.seed_one(ro.SpectralODE(4, 0.5, "perturbed"), "singular")

    def test_coefficient_shift_between_variants(self):
        # perturbed zero-order coefficient = free - (2d+d^2)/4, all d, lam
        for d in (3, 4, 7):
            for lam in (0.0, 1.3 + 2.2j):
                diff = (ro.zero_order_coeff(d, lam, "free")
                        - ro.zero_order_coeff(d, lam, "perturbed"))
                assert diff == (2.0 * d + d * d) / 4.0


class TestIntegration:
    def test_gauge_constant_flow(self):
        ode = ro.SpectralODE(5, 1.0, "perturbed")
        sol = ro.integrate(ro.seed_origin(ode), 0.9, tol=1e-11)
        u, up = sol(np.linspace(0.05, 0.9, 9))
        assert np.max(np.abs(u - 1.0)) <= 1e-10
        assert np.max(np.abs(up)) <= 1e-10

    def test_free_lambda1_d3_matches_2f1(self):
        ode = ro.SpectralODE(3, 1.0, "free")
        sol = ro.integrate(ro.seed_origin(ode), 0.95, tol=1e-11)
        rr = np.linspace(0.1, 0.9, 17)
        u, _ = sol(rr)
        a, b, c = sf.hypergeo_params(3, 1.0, "free")
        ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
        assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-8

    def test_dense_output_residual(self):
        ode = ro.SpectralODE(4, 0.4 + 3.0j, "perturbed")
        sol = ro.integrate(ro.seed_origin(ode), 0.97, tol=1e-10)
        h = 1e-5
        for r in np.linspace(0.05, 0.95, 10):
            u, up = sol(r)
            upp = (sol(r + h)[1] - sol(r - h)[1]) / (2 * h)
            res = ode.residual(r, complex(u), complex(up), complex(upp))
            scale = abs(u) + abs(up) + abs(upp)
            assert abs(res) <= 1e-8 * scale

    def test_hypergeometric_reduction_invariant(self):
        # free ode solution == 2F1(a_f, b_f; d/2; rho^2) on [0.1, 0.9]
        rng = np.random.default_rng(42)
        d = 4
        for _ in range(5):
            lam = complex(rng.uniform(0.0, 0.25), rng.uniform(-5.0, 5.0))
            ode = ro.SpectralODE(d, lam, "free")
            sol = ro.integrate(ro.seed_origin(ode), 0.95, tol=1e-11)
            a, b, c = sf.hypergeo_params(d, lam, "free")
            rr = np.linspace(0.1, 0.9, 9)
            u, _ = sol(rr)
            ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
            assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-8

    def test_domain_errors(self):
        ode = ro.SpectralODE(4, 0.0, "free")
        with pytest.raises(DomainError):
            ro.integrate(ro.seed_origin(ode), 1.0)
        with pytest.raises(DomainError):
            ro.integrate(ro.seed_origin(ode), 1e-4)


class TestWronskian:
    def test_identical_solutions_vanish(self):
        ode = ro.SpectralODE(4, 0.7, "perturbed")
        sol = ro.integrate(ro.seed_origin(ode), 0.9)
        assert abs(ro.wronskian(sol, sol, 0.5)) == 0.0

    def test_abel_identity(self):
        # W(rho) rho^{d-1} (1-rho^2)^{1/2+lam} is constant
        d, lam = 4, 0.3 + 2.0j
        ode = ro.SpectralODE(d, lam, "perturbed")
        s1 = ro.integrate(ro.seed_origin(ode), 0.95, tol=1e-11)
        s2 = ro.integrate(ro.seed_one(ode, "analytic"), 0.05, tol=1e-11)
        vals = []
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            w = ro.wronskian(s1, s2, r)
            vals.append(w * r ** (d - 1) * (1.0 - r * r) ** (0.5 + lam))
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) <= 1e-8 * abs(vals[0])

    def test_explicit_lambda1_pair(self):
        # the integrated free fundamental system at lam=1 reproduces the
        # closed-form Wronskian (d-2) rho^{1-d} (1-rho^2)^{-3/2}
        for d in (3, 4, 5):
            ex = ro.ExplicitLambda1(d)
            r = np.linspace(0.15, 0.85, 8)
            w = ex.u0(r) * ex.u1_deriv(r) - ex.u0_deriv(r) * ex.u1(r)
            assert np.max(np.abs(w - ex.wronskian(r)) / np.abs(w)) <= 1e-11


class TestExplicitLambda1:
    def test_u0_at_origin(self):
        assert ro.ExplicitLambda1(4).u0(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_wronskian_value(self):
        assert ro.ExplicitLambda1(3).wronskian(0.5) == pytest.approx(
            W_D3_HALF, abs=1e-12)

    def test_h1_basepoint_and_derivative(self):
        ex = ro.ExplicitLambda1(4)
        assert ex.h1(0.5) == 0.0
        h = 1e-6
        fd = (ex.h1(0.6 + h) - ex.h1(0.6 - h)) / (2 * h)
        assert fd == pytest.approx(ex.h1_deriv(0.6), rel=1e-9)

    def test_solves_free_lambda1_equation(self):
        ode = ro.SpectralODE(5, 1.0, "free")
        ex = ro.ExplicitLambda1(5)
        h = 1e-5
        for r in (0.2, 0.5, 0.8):
            upp = (ex.u0(r + h) - 2 * ex.u0(r) + ex.u0(r - h)) / h**2
            res = ode.residual(r, ex.u0(r), ex.u0_deriv(r), upp)
            assert abs(res) <= 1e-5 * abs(upp)


class TestEigenIndicator:
    def test_gauge_eigenvalue(self):
        mu, scale = ro.eigen_indicator(4, 1.0, "perturbed")
        assert abs(mu) <= 1e-8 * scale

    @pytest.mark.parametrize("omega", [1.0, 5.0, 20.0])
    def test_free_axis_bounded_away(self, omega):
        mu, scale = ro.eigen_indicator(4, 1j * omega, "free")
        assert abs(mu) > 1e-2 * scale

    @pytest.mark.parametrize("variant", ["free", "perturbed"])
    @pytest.mark.parametrize("lam", [2.0, 0.3 + 1.5j, 0.1 + 12.0j, 1.2 + 40.0j])
    def test_scalar_is_batched_shoot(self, variant, lam):
        mu, _ = ro.eigen_indicator(4, lam, variant, rtol=1e-9)
        ref = ro._indicator_batch(4, [lam], variant, rtol=1e-9)[0]
        assert abs(mu - ref) <= 1e-14 * abs(ref)

    def test_scan_small_window(self):
        for d in (3, 5, 6):
            roots = ro.scan_halfplane(d, "perturbed", omega_max=6.0)
            assert len(roots) == 1
            assert abs(roots[0][0] - 1.0) <= 1e-8
            assert ro.scan_halfplane(d, "free", omega_max=6.0) == []

    def test_scan_methods_agree(self):
        a = ro.scan_halfplane(4, "perturbed", omega_max=6.0)
        b = ro.scan_halfplane(4, "perturbed", omega_max=6.0, method="c3")
        assert len(a) == len(b) == 1
        assert abs(a[0][0] - b[0][0]) <= 1e-6

    def test_scan_batches_per_round(self, monkeypatch):
        # the free scan at omega 50 finds nothing; tracing its 26 bands in
        # lockstep needs one indicator call per |Im| group and round, where
        # tracing each edge alone needs about a hundred
        calls = []
        batch = ro._indicator_batch

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(ro, "_indicator_batch", counted)
        assert ro.scan_halfplane(4, "free", omega_max=50.0) == []
        assert len(calls) <= 10

    def test_indicator_tolerance_invariance(self):
        # zero location stable under doubling the integration tolerance
        from conewave.radialode import _newton_polish
        for rtol in (1e-8, 2e-8):
            root = _newton_polish(
                lambda z: ro.eigen_indicator(4, z, "perturbed", rtol=rtol)[0],
                1.1 + 0.05j)
            assert abs(root - 1.0) <= 1e-6


ROOT2 = 0.5 + 3.0j  # simple zero of _poly; lam = 1 is a double zero


def _poly(z):
    return (z - 1.0) * (z - 1.0) * (z - ROOT2)


def _counted_indicator():
    """_CachedIndicator over _poly, evaluated one point at a time so the
    values do not depend on how the cache groups its batches; also returns
    the list of batch sizes the tracer asked for."""
    calls = []
    cached = ro._CachedIndicator(
        lambda lams: np.array([_poly(complex(z)) for z in lams]))

    def ev(lams):
        calls.append(len(lams))
        return cached(lams)

    return ev, calls


class TestLockstepTracing:
    EDGES = [
        (-1.0j, 2.0 - 1.0j, 21),
        (2.0 - 1.0j, 2.0 + 1.0j, 21),
        (0.4 + 2.95j, 0.6 + 2.95j, 4),   # passes 0.05 below ROOT2
        (1.05 + 0.5j, 1.05 - 0.5j, 4),   # passes 0.05 right of lam = 1
        (3.0j, 5.0j, 21),                # runs through no zero
    ]

    def test_same_points_and_values_as_edge_alone(self):
        ev, calls = _counted_indicator()
        together = ro._trace_edges(ev, self.EDGES)
        rounds = []
        for edge, (pts, vals) in zip(self.EDGES, together):
            ev1, calls1 = _counted_indicator()
            [(pts1, vals1)] = ro._trace_edges(ev1, [edge])
            assert pts == pts1
            assert vals == vals1
            rounds.append(len(calls1))
        # the near-root edges refine, and all edges share each round's call
        assert max(rounds) > 1
        assert len(calls) == max(rounds)

    def test_winding_numbers_of_rect_list(self):
        rects = [(0.0, 2.0, -1.0, 1.0),   # lam = 1, double
                 (0.0, 1.0, 2.0, 4.0),    # ROOT2
                 (0.0, 2.0, 5.0, 7.0)]    # empty
        ev, _ = _counted_indicator()
        assert ro._winding_rect(ev, rects) == [2, 1, 0]
        for rect, w in zip(rects, (2, 1, 0)):
            ev1, _ = _counted_indicator()
            assert ro._winding_rect(ev1, [rect]) == [w]


class TestNearOneModel:
    def test_wronskian_2i(self):
        nm = ro.NearOneModel(2.0j)
        for r in (0.3, 0.7, 0.95):
            w = nm.w1(r) * nm.w2_deriv(r) - nm.w1_deriv(r) * nm.w2(r)
            assert abs(w - 2.0j) <= 1e-12

    def test_lambda_swap_proportionality(self):
        nm = ro.NearOneModel(0.7 + 1.3j)
        rr = np.array([0.4, 0.6, 0.8])
        ratio = nm.swapped_w1(rr) / nm.w2(rr)
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        assert abs(abs(ratio[0]) - 1.0) <= 1e-12

    def test_collision_guard(self):
        with pytest.raises(IndexCollisionError):
            ro.NearOneModel(0.5)

    def test_transformed_solution_rate(self):
        # v/w1 -> const at rate (1-rho), log-log slope 1.0 +/- 0.1
        d, lam = 4, 2.0j
        ode = ro.SpectralODE(d, lam, "perturbed")
        sol = ro.integrate(ro.seed_one(ode, "analytic"), 0.3, tol=1e-11)
        nm = ro.NearOneModel(lam)
        xs = 1.0 - np.linspace(0.9, 0.998, 12)
        rr = 1.0 - xs
        u, _ = sol(rr)
        v = rr ** ((d - 1) / 2.0) * (1.0 - rr**2) ** (0.25 + lam / 2.0) * u
        ratio = v / nm.w1(rr)
        # reference constant from the closest-to-one sample
        u_ref, _ = sol(1.0 - 1e-4)
        v_ref = ((1.0 - 1e-4) ** ((d - 1) / 2.0)
                 * (1.0 - (1.0 - 1e-4) ** 2) ** (0.25 + lam / 2.0) * u_ref)
        c_ref = complex(v_ref) / complex(nm.w1(1.0 - 1e-4))
        dev = np.abs(ratio / c_ref - 1.0)
        slope = np.polyfit(np.log(xs), np.log(dev), 1)[0]
        assert abs(slope - 1.0) <= 0.1


class TestGeneralizedEigenCheck:
    def test_closed_forms(self):
        assert ro.generalized_eigen_check(3)["value"] == pytest.approx(
            PI_OVER_16, abs=1e-12)
        assert ro.generalized_eigen_check(4)["value"] == pytest.approx(
            TWO_FIFTEENTHS, abs=1e-12)

    def test_positivity(self):
        for d in range(3, 10):
            rep = ro.generalized_eigen_check(d)
            assert rep["positive"]
            assert rep["value"] == pytest.approx(rep["closed_form"], abs=1e-12)
