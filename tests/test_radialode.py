import dataclasses
import math

import numpy as np
import pytest

from closed_forms import ExplicitLambda1
from conewave import _rk45
from conewave import collocation as co
from conewave import frobenius as fr
from conewave import green as gr
from conewave import radialode as ro
from conewave import specfun as sf
from conewave.errors import (ContourTooCloseError, DomainError,
                             IndexCollisionError)

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
        seed = ro.seed_origin(4, [lam], variant)
        [u], [up], [upp] = seed.eval2(np.asarray(ro.ORIGIN_START))
        res = ro.ode_residual(4, lam, variant, ro.ORIGIN_START, u, up, upp)
        assert abs(res) <= 1e-12 * (abs(u) + abs(upp))

    @pytest.mark.parametrize("branch", ["analytic", "singular"])
    def test_one_residual(self, branch):
        for lam in (1.0, 0.3 + 2.0j, 0.1 + 20.0j):
            seed = ro.seed_one(5, [lam], "perturbed", branch)
            x = np.asarray(1.0 - 1e-3)
            [u], [up], [upp] = seed.eval2(x)
            res = ro.ode_residual(5, lam, "perturbed", float(x), u, up, upp)
            assert abs(res) <= 1e-9 * (abs(u) + abs(upp) + 1.0)

    def test_gauge_series_is_constant(self):
        # perturbed lam=1: the H^1 branch is u == 1
        for d in (3, 4, 5, 6):
            [coeffs] = ro.seed_origin(d, [1.0], "perturbed").coefficients
            assert coeffs[0] == 1.0
            assert all(abs(c) == 0.0 for c in coeffs[1:])

    def test_origin_matches_hypergeometric_coefficients(self):
        # free variant: u(rho) = 2F1(a_f, b_f; d/2; rho^2)
        for d, lam in ((4, 0.0), (3, 0.7 + 1.1j), (6, 0.2 - 3.0j)):
            [coeffs] = ro.seed_origin(d, [lam], "free").coefficients
            a, b, c = sf.hypergeo_params(d, lam, "free")
            for k in (1, 2, 3):
                ref = _pochhammer_ratio(a, b, c, k)
                assert abs(coeffs[k] - ref) <= 1e-12 * (abs(ref) + 1)

    def test_singular_index(self):
        seed = ro.seed_one(4, [1.0], "perturbed", "singular")
        assert seed.index == pytest.approx([-0.5])

    def test_analytic_normalization(self):
        seed = ro.seed_one(4, [0.3 + 1.0j], "perturbed", "analytic")
        assert seed.coefficients[0, 0] == 1.0

    def test_index_collision(self):
        # one member at lam = 1/2 stops the singular branch of its batch
        for lams in ([0.5], [0.3 + 2.0j, 0.5, 2.0]):
            ro.seed_one(4, lams, "perturbed", "analytic")
            with pytest.raises(IndexCollisionError):
                ro.seed_one(4, lams, "perturbed", "singular")

    def test_batched_seeds_match_scalar_recurrence(self):
        # each member of a batch carries its own series, zero-padded above
        # the order where its own series stops
        rng = np.random.default_rng(7)
        lams = rng.uniform(-0.4, 2.0, 40) + 1j * rng.uniform(-200.0, 200.0, 40)
        lams[:4] = (1.0, 2.0, 0.3 + 0.5j, 0.1 + 200.0j)
        for d in (3, 4, 5, 6):
            for variant in ("free", "perturbed"):
                seeds = [(ro.seed_origin(d, lams, variant), ro.ORIGIN_START ** 2,
                          lambda lam: _scalar_origin(d, lam, variant))]
                for branch in ("analytic", "singular"):
                    seeds.append((
                        ro.seed_one(d, lams, variant, branch), 1.0 - ro.ONE_START,
                        lambda lam, br=branch: _scalar_one(d, lam, variant, br)))
                for seed, x0, scalar in seeds:
                    assert seed.coefficients.shape[0] == len(lams)
                    for lam, row, index in zip(lams, seed.coefficients, seed.index):
                        ref_index, ref = scalar(lam)
                        assert index == ref_index
                        assert np.all(row[len(ref):] == 0.0)
                        # numpy's complex array loops and Python's complex
                        # scalars round differently in the last bit, so each
                        # term is compared at the seed's start point,
                        # relative to the series there
                        terms = np.abs(ref) * x0 ** np.arange(len(ref))
                        err = np.abs(row[:len(ref)] - ref) * x0 ** np.arange(len(ref))
                        assert np.all(err <= 1e-15 * terms.sum()), (d, lam)

    def test_coefficient_shift_between_variants(self):
        # perturbed zero-order coefficient = free - (2d+d^2)/4, all d, lam
        for d in (3, 4, 7):
            for lam in (0.0, 1.3 + 2.2j):
                diff = (ro.zero_order_coeff(d, lam, "free")
                        - ro.zero_order_coeff(d, lam, "perturbed"))
                assert diff == (2.0 * d + d * d) / 4.0


def _scalar_origin(d, lam, variant):
    """(index, coefficients) of the origin series of one lam, as the
    recurrence a_{k+1}/a_k reads term by term."""
    c0 = complex(ro.zero_order_coeff(d, lam, variant))
    a = [1.0 + 0.0j]
    k = 0
    while k < fr.SEED_ORDER or (abs(a[-1]) * ro.ORIGIN_START ** (2 * k) > 1e-17
                                and k < 80):
        num = 4.0 * k * k + 2.0 * k * (2.0 * lam + d - 1.0) + c0
        a.append(a[-1] * num / ((2.0 * k + 2.0) * (2.0 * k + d)))
        k += 1
    return 0.0, np.array(a)


def _scalar_one(d, lam, variant, branch):
    """(index, coefficients) of the series at rho = 1 of one lam."""
    c0 = complex(ro.zero_order_coeff(d, lam, variant))
    sig = 0.0 if branch == "analytic" else 0.5 - lam
    two_ld = 2.0 * lam + d
    b = [1.0 + 0.0j]
    m = 0
    while m < fr.SEED_ORDER or (abs(b[-1]) * (1.0 - ro.ONE_START) ** m > 1e-17
                                and m < 80):
        ms = m + sig
        c_m = (ms + 1.0) * (2.0 * ms + 2.0 * lam + 1.0)
        a_m = -3.0 * ms * (ms - 1.0) - 2.0 * two_ld * ms - c0
        b_m = (ms - 1.0) * (ms - 2.0) + two_ld * (ms - 1.0) + c0
        prev2 = b[m - 1] if m >= 1 else 0.0
        b.append(-(a_m * b[m] + b_m * prev2) / c_m)
        m += 1
    return sig, np.array(b)


def _origin(d, lam, variant, pts, rtol=1e-11):
    u, up, _, _ = ro.integrate(d, [lam], variant, np.asarray(pts), rtol)
    return u[0], up[0]


def _direct_origin(d, lams, variant, pts):
    """(u, u') of the origin-regular solution by one RK45 run of the plain
    equation from its seed to pts[-1] at rtol 1e-13, with no continuation
    in a pair at rho = 1; arrays (n_lam, n_pts)."""
    seed = ro.seed_origin(d, lams, variant)
    _, cp, _ = _rk45.solve(ro._batch_rhs(d, lams, variant), ro.ORIGIN_START,
                           pts[-1], np.stack(seed.eval(ro.ORIGIN_START), axis=-1),
                           rtol=1e-13, atol=1e-300, checkpoints=pts)
    return cp[:, :, 0].T, cp[:, :, 1].T


def _direct_one(d, lams, variant, pts):
    """(u, u') of the analytic-at-one solution by one RK45 run of the plain
    equation from its seed down to pts[0] at rtol 1e-13, with no pair
    continuation and no closed form near 0; arrays (n_lam, n_pts)."""
    seed = ro.seed_one(d, lams, variant, "analytic")
    _, cp, _ = _rk45.solve(ro._batch_rhs(d, lams, variant), ro.ONE_START,
                           pts[0], np.stack(seed.eval(ro.ONE_START), axis=-1),
                           rtol=1e-13, atol=1e-300, checkpoints=pts[::-1])
    return cp[::-1, :, 0].T, cp[::-1, :, 1].T


class TestIntegration:
    def test_gauge_constant_flow(self):
        u, up = _origin(5, 1.0, "perturbed", np.linspace(0.05, 0.9, 9))
        assert np.max(np.abs(u - 1.0)) <= 1e-10
        assert np.max(np.abs(up)) <= 1e-10

    def test_free_lambda1_d3_matches_2f1(self):
        rr = np.linspace(0.1, 0.9, 17)
        u, _ = _origin(3, 1.0, "free", rr)
        a, b, c = sf.hypergeo_params(3, 1.0, "free")
        ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
        assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-8

    def test_dense_output_residual(self):
        # u'' by central differences of u' on a three-point stencil
        lam = 0.4 + 3.0j
        h = 1e-5
        rr = np.linspace(0.05, 0.95, 10)
        u, up = _origin(4, lam, "perturbed",
                        (rr[:, None] + np.array([-h, 0.0, h])).ravel(), 1e-10)
        u, up = u.reshape(-1, 3)[:, 1], up.reshape(-1, 3)
        upp = (up[:, 2] - up[:, 0]) / (2 * h)
        res = ro.ode_residual(4, lam, "perturbed", rr, u, up[:, 1], upp)
        scale = np.abs(u) + np.abs(up[:, 1]) + np.abs(upp)
        assert np.all(np.abs(res) <= 1e-8 * scale)

    def test_hypergeometric_reduction_invariant(self):
        # free ode solution == 2F1(a_f, b_f; d/2; rho^2) on [0.1, 0.9]
        rng = np.random.default_rng(42)
        d = 4
        for _ in range(5):
            lam = complex(rng.uniform(0.0, 0.25), rng.uniform(-5.0, 5.0))
            a, b, c = sf.hypergeo_params(d, lam, "free")
            rr = np.linspace(0.1, 0.9, 9)
            u, _ = _origin(d, lam, "free", rr)
            ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
            assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-8

    @pytest.mark.parametrize("endpoint, start",
                             [("origin", ro.ORIGIN_START), ("one", ro.ONE_START)])
    @pytest.mark.parametrize("lam", [2.0, 0.3 + 5.0j])
    def test_seed_gap_boundary(self, endpoint, start, lam):
        # just inside the gap the series is read, just outside RK45 steps
        # off the series start; both agree with the series itself
        pts = start + np.array([-1e-6, -1e-9, 1e-9, 1e-6])
        seed = (ro.seed_origin(4, [lam], "perturbed") if endpoint == "origin"
                else ro.seed_one(4, [lam], "perturbed", "analytic"))
        u0, u0p, u1, u1p = ro.integrate(4, [lam], "perturbed", pts, 1e-10)
        u, up = (u0, u0p) if endpoint == "origin" else (u1, u1p)
        [ref_u], [ref_up] = seed.eval(pts)
        assert np.max(np.abs(u[0] - ref_u) / np.abs(ref_u)) <= 1e-9
        assert np.max(np.abs(up[0] - ref_up)) <= 1e-9 * np.max(np.abs(ref_up))

    def test_continuation_past_one_start_matches_closed_form(self):
        # free lam = 1: u0 = ((1+s)^{d/2-1} s)^{-1}, s = sqrt(1-rho^2), so
        # the singular branch (1-rho)^{-1/2} of the pair at 1 dominates
        pts = np.array([0.5, 0.9991, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9])
        for d in (3, 4, 5, 6):
            ex = ExplicitLambda1(d)
            u, up, _, _ = ro.integrate(d, [1.0], "free", pts, 1e-11)
            c = u[0, 0] / ex.u0(0.5)
            ref_u, ref_up = ex.u0(pts), ex.u0_deriv(pts)
            assert np.max(np.abs(u[0] / c - ref_u) / ref_u) <= 1e-8
            assert np.max(np.abs(up[0] / c - ref_up) / ref_up) <= 1e-8

    def test_index_resonance_limit(self):
        # at lam = 3/2 the singular branch at 1 is no pure Frobenius series:
        # below ONE_START the origin solution is still the 2F1 one, on
        # [ONE_START, 1) it cannot be continued
        lam, rr = 1.5, np.array([0.3, 0.6, 0.9])
        u, _ = _origin(4, lam, "free", rr)
        a, b, c = sf.hypergeo_params(4, lam, "free")
        ref = np.array([sf.hyp2f1(a, b, c, r * r) for r in rr])
        assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-8
        with pytest.raises(IndexCollisionError):
            _origin(4, lam, "free", [0.5, 0.9995])

    @pytest.mark.parametrize("base", [0.5, 1.5])
    @pytest.mark.parametrize("offset", [1.0, 1.0j])
    @pytest.mark.parametrize("side", [0.8, 1.25])
    def test_index_gap(self, monkeypatch, base, offset, side):
        # inside INDEX_GAP of the index resonance RK45 carries u0 to
        # ONE_START; outside it RK45 stops at RHO_MID and the gauge pair,
        # one more RK45 run of the gauged equation, continues u0.  Both
        # stay within 1e-9 of a direct solve; the pair's error is
        # ~4e-12 / dist at lam 3/2.
        lam = base + side * ro.INDEX_GAP * offset
        pts = np.linspace(0.01, 0.998, 120)
        ref, ref_p = _direct_origin(4, [lam], "perturbed", pts)
        gauged, batch_rhs = [], ro._batch_rhs

        def recorded(*args):
            gauged.append(len(args) > 3)   # sigma given
            return batch_rhs(*args)

        monkeypatch.setattr(ro, "_batch_rhs", recorded)
        u, up, _, _ = ro.integrate(4, [lam], "perturbed", pts, 1e-10)
        assert gauged == ([False] if side < 1.0 else [False, True])
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.max(np.abs(up - ref_p)) <= 1e-9 * np.max(np.abs(ref_p))

    def test_high_frequency_continuation(self):
        # at omega 100 and 200 the singular branch at 1 oscillates like
        # e^{-i omega ln(1-rho)}; continued from RHO_MID in the gauge pair,
        # u0' stays within 2e-9 of a direct solve (6.2e-10 at omega 200,
        # against 5.5e-9 when RK45 carried u0 itself up to 0.998)
        lams = [0.4 + 100.0j, 0.4 + 200.0j]
        pts = np.linspace(0.01, 0.998, 300)
        _, up, _, _ = ro.integrate(4, lams, "perturbed", pts, 1e-10)
        _, ref = _direct_origin(4, lams, "perturbed", pts)
        rel = np.max(np.abs(up - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert np.all(rel <= 2e-9), rel

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_origin_continuation(self, d):
        # on the Green layout's nodes below ORIGIN_START (down to 2.7e-10)
        # u1 ~ rho^{2-d} is u0 q by reduction of order from ORIGIN_START;
        # outside INDEX_GAP its descent continues the gauge pair from
        # RHO_MID, inside it is one run from ONE_START
        _, nodes, _ = gr._panel_layout([])
        small = nodes <= ro.ORIGIN_START
        for lams in ([0.4, 2.0, 0.3 + 5.0j], [1.5 + 0.8 * ro.INDEX_GAP]):
            _, _, u1, u1p = ro.integrate(d, lams, "perturbed", nodes, 1e-10)
            ref, ref_p = _direct_one(d, lams, "perturbed", nodes[small])
            for got, want in ((u1[:, small], ref), (u1p[:, small], ref_p)):
                rel = np.max(np.abs(got - want) / np.abs(want))
                assert rel <= 1e-9, (lams, rel)

    def test_empty_batch(self):
        # no lam: empty arrays, also where RK45 would land checkpoints
        out = ro.integrate(4, [], "free", [0.2, 0.5, 0.9999], 1e-8)
        assert [a.shape for a in out] == [(0, 3)] * 4
        assert ro._indicator_batch(4, [], "free").shape == (0,)

    def test_domain_errors(self):
        for pts in ([0.5, 1.0], [0.0, 0.5], [-0.1], [0.6, 0.4]):
            with pytest.raises(DomainError):
                ro.integrate(4, [0.0], "free", pts, 1e-10)


class TestWronskian:
    def test_abel_identity(self):
        # W(rho) rho^{d-1} (1-rho^2)^{1/2+lam} is constant
        d, lam = 4, 0.3 + 2.0j
        r = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        u0, u0p, u1, u1p = ro.integrate(d, [lam], "perturbed", r, 1e-11)
        w = u0[0] * u1p[0] - u0p[0] * u1[0]
        vals = w * r ** (d - 1) * (1.0 - r * r) ** (0.5 + lam)
        assert np.max(np.abs(vals - vals[0])) <= 1e-8 * abs(vals[0])

    def test_explicit_lambda1_pair(self):
        # the integrated free fundamental system at lam=1 reproduces the
        # closed-form Wronskian (d-2) rho^{1-d} (1-rho^2)^{-3/2}
        for d in (3, 4, 5):
            ex = ExplicitLambda1(d)
            r = np.linspace(0.15, 0.85, 8)
            w = ex.u0(r) * ex.u1_deriv(r) - ex.u0_deriv(r) * ex.u1(r)
            assert np.max(np.abs(w - ex.wronskian(r)) / np.abs(w)) <= 1e-11


class TestExplicitLambda1:
    def test_u0_at_origin(self):
        assert ExplicitLambda1(4).u0(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_wronskian_value(self):
        assert ExplicitLambda1(3).wronskian(0.5) == pytest.approx(
            W_D3_HALF, abs=1e-12)

    def test_h1_basepoint_and_derivative(self):
        ex = ExplicitLambda1(4)
        assert ex.h1(0.5) == 0.0
        h = 1e-6
        fd = (ex.h1(0.6 + h) - ex.h1(0.6 - h)) / (2 * h)
        assert fd == pytest.approx(ex.h1_deriv(0.6), rel=1e-9)

    def test_solves_free_lambda1_equation(self):
        ex = ExplicitLambda1(5)
        h = 1e-5
        for r in (0.2, 0.5, 0.8):
            upp = (ex.u0(r + h) - 2 * ex.u0(r) + ex.u0(r - h)) / h**2
            res = ro.ode_residual(5, 1.0, "free", r, ex.u0(r), ex.u0_deriv(r),
                                  upp)
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

    def test_array_lam_is_one_batch_of_scalars(self):
        lams = np.array([2.0, 0.3 + 1.5j, 1.2 + 40.0j])
        mu, scale = ro.eigen_indicator(4, lams, "perturbed", rtol=1e-10)
        assert mu.shape == scale.shape == (3,)
        for lam, m, sc in zip(lams, mu, scale):
            ref, ref_scale = ro.eigen_indicator(4, lam, "perturbed", rtol=1e-10)
            assert isinstance(ref, complex) and isinstance(ref_scale, float)
            assert abs(m - ref) <= 1e-9 * abs(ref)
            assert abs(sc - ref_scale) <= 1e-9 * ref_scale

    def test_scan_small_window(self):
        # across the paper's range the dense eigenvalues, the shooting scan
        # and the c3 scan each find lam = 1 alone, and nothing for L0
        for d in (3, 5, 6):
            grids = (co.build(d, 64), co.build(d, 128))
            free = [dataclasses.replace(g, L_mat=g.L0_mat) for g in grids]
            eig = co.unstable_eigenvalues(*grids, re_min=0.05, im_max=6.0)
            assert len(eig) == 1 and abs(eig[0] - 1.0) <= 1e-8, d
            assert co.unstable_eigenvalues(
                *free, re_min=0.05, im_max=6.0) == [], d
            for method in ("shooting", "c3"):
                roots = ro.scan_halfplane(d, "perturbed", omega_max=6.0,
                                          method=method)
                assert len(roots) == 1, (d, method)
                assert abs(roots[0][0] - 1.0) <= 1e-8, (d, method)
                assert ro.scan_halfplane(d, "free", omega_max=6.0,
                                         method=method) == [], (d, method)

    def test_scan_methods_agree(self):
        a = ro.scan_halfplane(4, "perturbed", omega_max=6.0)
        b = ro.scan_halfplane(4, "perturbed", omega_max=6.0, method="c3")
        assert len(a) == len(b) == 1
        assert abs(a[0][0] - b[0][0]) <= 1e-6

    def test_scan_batches_per_round(self, monkeypatch):
        # tracing the 26 bands at omega 50 in lockstep needs one indicator
        # call per |Im| group and round, where tracing each edge alone needs
        # about a hundred; the perturbed scan locates lam = 1 from the same
        # samples, so it needs no more calls than the free one
        calls = []
        batch = ro._indicator_batch

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(ro, "_indicator_batch", counted)
        for variant, expected in (("free", []), ("perturbed", [(1.0, 1)])):
            calls.clear()
            roots = ro.scan_halfplane(4, variant, omega_max=50.0)
            assert [(round(z.real, 8) + round(z.imag, 8) * 1j, m)
                    for z, m in roots] == expected, variant
            assert len(calls) <= 10, variant
            # a band's top edge is the next band's bottom, traced once
            assert sum(calls) <= 1545, variant

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

    def test_shared_edge_is_traced_once(self):
        # [0, 1] x [2, 2.95] under [0, 1] x [2.95, 4], edges as
        # _winding_rect builds them; their shared edge passes 0.05 below
        # ROOT2, so it refines
        def trace(edges):
            lams = []   # every lam that reaches the evaluator
            ev = ro._CachedIndicator(
                lambda z: lams.extend(z) or np.array([_poly(complex(l)) for l in z]))
            return lams, ro._trace_edges(ev, edges)

        edges = []
        for im0, im1 in ((2.0, 2.95), (2.95, 4.0)):
            corners = [complex(0.0, im0), complex(1.0, im0), complex(1.0, im1),
                       complex(0.0, im1), complex(0.0, im0)]
            edges += [(a, b, 11) for a, b in zip(corners[:-1], corners[1:])]
        lams, traced = trace(edges)
        (top, top_vals), (bottom, bottom_vals) = traced[2], traced[4]
        assert len(bottom) > 11
        assert top == bottom[::-1] and top_vals == bottom_vals[::-1]
        # the shared edge's points are evaluated for one band only
        lower, upper = trace(edges[:4])[0], trace(edges[4:])[0]
        assert len(lams) == len(set(lams)) == len(lower) + len(upper) - len(bottom)
        # each edge alone gives the same points
        for edge, (pts, _) in zip(edges, traced):
            [(alone, _)] = trace([edge])[1]
            assert alone == pts

    def test_winding_numbers_of_rect_list(self):
        rects = [(0.0, 2.0, -1.0, 1.0),   # lam = 1, double
                 (0.0, 1.0, 2.0, 4.0),    # ROOT2
                 (0.0, 2.0, 5.0, 7.0)]    # empty
        ev, _ = _counted_indicator()
        counted = ro._winding_rect(ev, rects)
        assert [w for w, _ in counted] == [2, 1, 0]
        assert [len(est) for _, est in counted] == [2, 1, 0]
        for rect, w in zip(rects, (2, 1, 0)):
            ev1, _ = _counted_indicator()
            assert [w1 for w1, _ in ro._winding_rect(ev1, [rect])] == [w]
        # the estimates polish onto the zeros; the double zero's two
        # estimates merge into one root of multiplicity 2
        located = [ro._polish_band(_poly, rect, est)
                   for rect, (_, est) in zip(rects, counted)]
        assert [[m for _, m in roots] for roots in located] == [[2], [1], []]
        assert abs(located[0][0][0] - 1.0) <= 1e-8
        assert abs(located[1][0][0] - ROOT2) <= 1e-12

    def test_polished_root_outside_band_raises(self):
        # a start whose Newton path leaves the rectangle sends the scan to
        # its band-shift retry
        with pytest.raises(ContourTooCloseError):
            ro._polish_band(_poly, (0.0, 2.0, -1.0, 1.0), [0.5 + 2.9j])


class NearOneModel:
    """Model fundamental system near rho=1 before the potential correction.

    w1 = (1+rho)^{3/4-lam/2} (1-rho)^{1/4+lam/2} / sqrt(a(lam)),
    w2 = (1+rho)^{1/4+lam/2} (1-rho)^{3/4-lam/2} / sqrt(a(lam)),
    W(w1, w2) = 2i exactly.  The exponent swap lam -> 1-lam maps w1 to w2
    up to the constant sqrt(a(1-lam))/sqrt(a(lam)) (a unit modulus branch
    factor, since a(1-lam) = -a(lam)).
    """

    def __init__(self, lam: complex):
        lam = complex(lam)
        if abs(lam - 0.5) < 1e-12:
            raise IndexCollisionError("model degenerate at lam=1/2")
        self.lam = lam
        self.a = 1j * (0.5 - lam)

    def _w(self, rho, ex_plus, ex_minus):
        rho = np.asarray(rho, dtype=float)
        return (1.0 + rho) ** ex_plus * (1.0 - rho) ** ex_minus / np.sqrt(self.a)

    def w1(self, rho):
        return self._w(rho, 0.75 - self.lam / 2.0, 0.25 + self.lam / 2.0)

    def w1_deriv(self, rho):
        ex1, ex2 = 0.75 - self.lam / 2.0, 0.25 + self.lam / 2.0
        rho = np.asarray(rho, dtype=float)
        return self._w(rho, ex1, ex2) * (ex1 / (1.0 + rho) - ex2 / (1.0 - rho))

    def w2(self, rho):
        return self._w(rho, 0.25 + self.lam / 2.0, 0.75 - self.lam / 2.0)

    def w2_deriv(self, rho):
        ex1, ex2 = 0.25 + self.lam / 2.0, 0.75 - self.lam / 2.0
        rho = np.asarray(rho, dtype=float)
        return self._w(rho, ex1, ex2) * (ex1 / (1.0 + rho) - ex2 / (1.0 - rho))

    def swapped_w1(self, rho):
        """w1 with lam -> 1-lam, for the symmetry check (proportional to w2)."""
        lam2 = 1.0 - self.lam
        a2 = 1j * (0.5 - lam2)
        rho = np.asarray(rho, dtype=float)
        ex1, ex2 = 0.75 - lam2 / 2.0, 0.25 + lam2 / 2.0
        return (1.0 + rho) ** ex1 * (1.0 - rho) ** ex2 / np.sqrt(a2)


class TestNearOneModel:
    def test_wronskian_2i(self):
        nm = NearOneModel(2.0j)
        for r in (0.3, 0.7, 0.95):
            w = nm.w1(r) * nm.w2_deriv(r) - nm.w1_deriv(r) * nm.w2(r)
            assert abs(w - 2.0j) <= 1e-12

    def test_lambda_swap_proportionality(self):
        nm = NearOneModel(0.7 + 1.3j)
        rr = np.array([0.4, 0.6, 0.8])
        ratio = nm.swapped_w1(rr) / nm.w2(rr)
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        assert abs(abs(ratio[0]) - 1.0) <= 1e-12

    def test_collision_guard(self):
        with pytest.raises(IndexCollisionError):
            NearOneModel(0.5)

    def test_transformed_solution_rate(self):
        # v/w1 -> const at rate (1-rho), log-log slope 1.0 +/- 0.1
        d, lam = 4, 2.0j
        nm = NearOneModel(lam)
        xs = 1.0 - np.linspace(0.9, 0.998, 12)
        rr = 1.0 - xs
        r_ref = 1.0 - 1e-4
        _, _, u, _ = ro.integrate(d, [lam], "perturbed", np.append(rr, r_ref),
                                  1e-11)
        u, u_ref = u[0, :-1], u[0, -1]
        v = rr ** ((d - 1) / 2.0) * (1.0 - rr**2) ** (0.25 + lam / 2.0) * u
        ratio = v / nm.w1(rr)
        # reference constant from the closest-to-one sample
        v_ref = (r_ref ** ((d - 1) / 2.0)
                 * (1.0 - r_ref ** 2) ** (0.25 + lam / 2.0) * u_ref)
        c_ref = complex(v_ref) / complex(nm.w1(r_ref))
        dev = np.abs(ratio / c_ref - 1.0)
        slope = np.polyfit(np.log(xs), np.log(dev), 1)[0]
        assert abs(slope - 1.0) <= 0.1


def generalized_eigen_check(d: int) -> dict:
    """int_0^1 s^{d-1} sqrt(1-s^2) ds and its positivity.

    A Jordan block above the gauge eigenvalue would force this integral
    to vanish; positivity certifies algebraic multiplicity one.
    """
    if d < 3:
        raise DomainError("dimension must be >= 3")
    # substitute s = sin(theta): the integrand becomes smooth on [0, pi/2]
    nodes, weights = np.polynomial.legendre.leggauss(80)
    th = 0.25 * math.pi * (nodes + 1.0)
    f = np.sin(th) ** (d - 1.0) * np.cos(th) ** 2
    val = 0.25 * math.pi * float(np.dot(weights, f))
    closed = math.gamma(d / 2.0) * math.gamma(1.5) / (2.0 * math.gamma(d / 2.0 + 1.5))
    return {"d": d, "value": val, "closed_form": closed, "positive": val > 0.0}


class TestGeneralizedEigenCheck:
    def test_closed_forms(self):
        assert generalized_eigen_check(3)["value"] == pytest.approx(
            PI_OVER_16, abs=1e-12)
        assert generalized_eigen_check(4)["value"] == pytest.approx(
            TWO_FIFTEENTHS, abs=1e-12)

    def test_positivity(self):
        for d in range(3, 10):
            rep = generalized_eigen_check(d)
            assert rep["positive"]
            assert rep["value"] == pytest.approx(rep["closed_form"], abs=1e-12)
