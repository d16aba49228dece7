import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import closed_forms as cf
from conewave import cli
from conewave import collocation as co
from conewave import frobenius as fr
from conewave import green as gr
from conewave import radialode as ro
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
        a = cf.green_eval(4, 2.0, "perturbed", 0.4, 0.4 + 1e-12)
        b = cf.green_eval(4, 2.0, "perturbed", 0.4 + 1e-12, 0.4)
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_jump_relation(self, kernel_d4):
        # (1-s^2) [d_rho G jump across rho=s] = -1, where the jump is
        # weight(s) (u0 u1' - u0' u1)(s), weight = s^{d-1} (1-s^2)^{lam-1/2}
        # / (2i)
        s = 0.55
        k = int(np.searchsorted(KERNEL_PTS, s))
        u0, u0p, u1, u1p, _ = kernel_d4
        weight = s**3 * (1.0 - s * s) ** 1.5 / 2.0j
        jump = weight * (u0[0, k] * u1p[0, k] - u0p[0, k] * u1[0, k])
        assert abs((1 - s * s) * jump + 1.0) <= 1e-6

    def test_free_and_perturbed_differ(self):
        lam = 0.1 + 5.0j
        gf = cf.green_eval(4, lam, "free", 0.3, 0.6)
        gp = cf.green_eval(4, lam, "perturbed", 0.3, 0.6)
        assert abs(gf - gp) > 1e-3

    def test_self_consistency_doubled_tolerance(self):
        a = cf.green_eval(4, 2.0, "perturbed", 0.3, 0.6, rtol=1e-10)
        b = cf.green_eval(4, 2.0, "perturbed", 0.3, 0.6, rtol=5e-11)
        assert abs(a - b) <= 1e-7 * abs(a)

    def test_free_kernel_reproduces_hypergeometric(self):
        # u0 of the free variant is proportional to 2F1(a_f, b_f; d/2; rho^2)
        d, lam = 4, 0.2 + 1.5j
        rr = np.linspace(0.1, 0.9, 9)
        vals = gr.build_kernel(d, [lam], "free", rr, 1e-10)[0][0]
        a, b, c = sf.hypergeo_params(d, lam, "free")
        ref = np.array([cf.hyp2f1(a, b, c, r * r) for r in rr])
        ratio = vals / ref
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-8 * abs(ratio[0])

    def test_green_eval_over_lambda_array(self):
        # batch members share one step size, so rows agree with single-lam
        # solves to ~rtol; a tight rtol makes that difference negligible
        lams = np.array([0.1 + 5.0j, 2.0, 0.1 + 40.0j])
        for variant in ("free", "perturbed"):
            for rho, s in ((0.3, 0.6), (0.7, 0.2)):
                g = cf.green_eval(4, lams, variant, rho, s, rtol=1e-13)
                assert g.shape == (3,)
                for lam, val in zip(lams, g):
                    ref = cf.green_eval(4, lam, variant, rho, s, rtol=1e-13)
                    assert abs(val - ref) <= 1e-12 * abs(ref)


class TestResolvent:
    def test_forward_operator_oracle(self):
        # the last three lam lie within INDEX_GAP of the index resonance:
        # u0 runs to ONE_START, where the pair at 1 is the seeds, and the
        # node sums past it come from the series
        rho = np.linspace(0.0, 1.0, 21)
        for d, lam in ((3, 2.0), (4, 2.0), (6, 2.0), (4, 1.502),
                       (4, 1.5 + 0.003j), (4, 2.496)):
            assert fr.handoff(np.array([lam]))[2] == (lam != 2.0)
            src, u1e, u2e = _poly_pair_source(d, lam)
            u1, u2, u1p = gr._resolvent_batch(d, [lam], "perturbed", src, rho,
                                              rtol=1e-10)
            assert np.max(np.abs(u1[0] - u1e(rho))) <= 1e-6
            assert np.max(np.abs(u2[0] - u2e(rho))) <= 1e-6
            # the rho = 1 derivative trace, from the equation there
            assert abs(u1p[0, -1] + 0.8) <= 1e-10   # u1'(1) = -2 + 1.2

    def test_quadrature_nodes_are_value_only(self, monkeypatch):
        # the nodes are RK45 samples: each run lands only on its output
        # points, RHO_MID and its own end, and no step ends on a node
        runs = []

        def recorded(f, x0, x_end, y0, **kwargs):
            def rhs(x, y):
                xs.append(x)
                return f(x, y)
            xs = []
            runs.append((x0, x_end, kwargs["checkpoints"], kwargs["samples"],
                         xs))
            return rk45_solve(rhs, x0, x_end, y0, **kwargs)

        # bound to another name: test_unused_defaults matches calls by name,
        # and a forwarding call sets no default of solve
        rk45_solve = ro._rk45.solve
        monkeypatch.setattr(ro._rk45, "solve", recorded)
        # clusters 1e-4 apart, as residual_checks' stencils
        rho = np.unique(np.append(np.linspace(0.0, 1.0, 21), (
            np.linspace(0.1, 0.9, 9)[:, None] + 1e-4 * np.arange(1, 4)).ravel()))
        out_pts = rho[1:-1]
        src, u1e, _ = _poly_pair_source(4, 2.0)
        u1 = gr._resolvent_batch(4, [2.0, 0.5 + 3.0j], "perturbed", src, rho,
                                 rtol=1e-10)[0]
        assert np.max(np.abs(u1[0] - u1e(rho))) <= 1e-6
        _, nodes, _ = gr._panel_layout(out_pts)
        assert len(runs) == 3
        for x0, x_end, cps, samples, xs in runs:
            assert samples is not None
            assert set(cps) <= set(out_pts) | {ro.RHO_MID}
            lo, hi = min(x0, x_end), max(x0, x_end)
            mine = np.count_nonzero((out_pts >= lo) & (out_pts <= hi))
            assert len(cps) <= mine + 1, (x0, x_end, cps)
            # k1, then six scalar stages per attempted step, the fifth at
            # its end
            assert all(np.ndim(x) == 0 for x in xs)
            ends = np.array(xs[5::6])
            assert abs(ends[-1] - x_end) <= 1e-15
            assert not np.isin(ends, nodes).any()
            assert all(np.min(np.abs(ends - c)) <= 1e-15 for c in cps
                       if c != x0)

    def test_zero_source(self):
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        u1 = gr._resolvent_batch(4, [2.0], "perturbed", gr.SourceTerm(z, z, z),
                                 np.linspace(0.1, 0.9, 5), rtol=1e-9)[0][0]
        assert np.max(np.abs(u1)) == 0.0

    def test_residual_checks(self):
        src, _, _ = _poly_pair_source(4, 2.0)
        [out] = gr.residual_checks(4, [2.0], "perturbed", src,
                                   np.linspace(0.08, 0.92, 15))
        assert out["ode_residual"] <= 1e-6
        assert out["round_trip"] <= 1e-6

    def test_residual_checks_share_one_solve(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return batch(*args, **kwargs)

        batch = gr._resolvent_batch
        monkeypatch.setattr(gr, "_resolvent_batch", counted)
        src, _, _ = _poly_pair_source(4, 2.0)
        out = gr.residual_checks(4, [2.0, 0.5 + 3.0j], "perturbed", src,
                                 np.linspace(0.08, 0.92, 15))
        assert calls == [2]
        assert len(out) == 2
        assert all(o["ode_residual"] <= 1e-6 and o["round_trip"] <= 1e-6
                   for o in out)

    def test_residual_checks_match_a_loop_over_lambda(self):
        # reference: the same batched solve, checked one lam per loop pass
        d, variant = 4, "perturbed"
        lams = np.array([2.0, 0.5 + 3.0j, 0.1 + 10.0j])
        src, _, _ = _poly_pair_source(d, 2.0)
        r = np.linspace(0.08, 0.92, 15)
        h = 2e-4
        stencil = r[:, None] + np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        pts = np.unique(stencil.ravel())
        ix = np.searchsorted(pts, stencil)
        w_fd = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        beta = (2.0 * d + d * d) / 4.0
        fnorm = max(float(np.max(np.abs(src.f1(r)))),
                    float(np.max(np.abs(src.f2(r)))))
        ref = []
        for lam, s_u1, s_u2, s_u1p in zip(lams, *gr._resolvent_batch(
                d, lams, variant, src, pts, rtol=1e-10)):
            lam = complex(lam)
            u1, u1p, u2 = s_u1[ix[:, 2]], s_u1p[ix[:, 2]], s_u2[ix[:, 2]]
            u1pp = (s_u1p[ix] * w_fd[None, :]).sum(axis=1)
            u2p = (s_u2[ix] * w_fd[None, :]).sum(axis=1)
            flam = src.F_lambda(r, lam, d)
            ode = ro.ode_residual(d, lam, variant, r, u1, u1p, u1pp) + flam
            f1 = lam * u1 + r * u1p + (d - 2.0) / 2.0 * u1 - u2
            f2 = (lam * u2 - u1pp - (d - 1.0) / r * u1p
                  + r * u2p + d / 2.0 * u2 - beta * u1)
            rt = max(float(np.max(np.abs(f1 - src.f1(r)))),
                     float(np.max(np.abs(f2 - src.f2(r))))) / (fnorm + 1e-300)
            ref.append({"ode_residual": float(np.max(np.abs(ode)))
                        / (float(np.max(np.abs(flam))) + 1e-300),
                        "round_trip": rt})
        assert gr.residual_checks(d, lams, variant, src, r) == ref

    def test_high_frequency_at_tight_tolerance(self):
        # at lam = 0.4 + 200i the branch (1-rho)^{1/2-lam} oscillates like
        # e^{-200i ln(1-rho)} toward the last quadrature node at
        # 1 - 2.7e-10; the origin solution crosses that range in the
        # Frobenius pair at 1, not by RK45 steps (criterion 4's source)
        src = gr.SourceTerm(
            lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (1.0 - np.asarray(r) ** 2),
            lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (
                -4.0 * np.asarray(r) * (1.0 - np.asarray(r) ** 2)
                - 2.0 * np.asarray(r)),
            lambda r: 0.5 * np.cos(np.asarray(r)) - 0.3)
        rho = [0.0, 0.3, 0.7, 0.9995, 1.0]
        coarse, fine = (gr._resolvent_batch(4, [0.4 + 200.0j], "perturbed",
                                            src, rho, rtol=rtol)
                        for rtol in (1e-10, 1e-11))
        for a, b in zip(coarse, fine):
            assert np.all(np.isfinite(a))
            assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(b))

    def test_smooth_rhs_example(self):
        # lam=2, d=4, f=(1-rho^2, 0): residual check passes
        src = gr.SourceTerm(
            lambda r: 1.0 - np.asarray(r) ** 2,
            lambda r: -2.0 * np.asarray(r),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        [out] = gr.residual_checks(4, [2.0], "perturbed", src,
                                   np.linspace(0.1, 0.9, 9))
        assert out["ode_residual"] <= 1e-6

    def test_resolvent_identity(self):
        # R(lam) f - R(mu) f = (mu - lam) R(lam) R(mu) f (first components)
        d = 4
        disc = co.build(d, 48)
        lam, mu = 2.0, 1.4  # lam - 1/2 nonintegral keeps both traces regular
        src, _, _ = _poly_pair_source(d, 2.0)
        rho = disc.nodes
        r_lam = gr._resolvent_batch(d, [lam], "perturbed", src, rho,
                                    rtol=1e-10)[0][0]
        mu_u1, mu_u2, _ = gr._resolvent_batch(d, [mu], "perturbed", src, rho,
                                              rtol=1e-10)
        inner = cf.source_from_grid(disc, (np.real(mu_u1[0]),
                                           np.real(mu_u2[0])))
        r_both = gr._resolvent_batch(d, [lam], "perturbed", inner, rho,
                                     rtol=1e-10)[0][0]
        lhs = r_lam - mu_u1[0]
        rhs = (mu - lam) * r_both
        scale = np.max(np.abs(r_lam))
        assert np.max(np.abs(lhs - rhs)) <= 1e-5 * scale


GREEN_CHECK_LAMS = [2.0, 0.5 + 3.0j, 0.1 + 10.0j]


@pytest.fixture(scope="module")
def green_check_run():
    """The CLI's green-check at N 96: its residuals, the RHS calls of its
    RK45 solves and their lowest abscissa, its source, and the (pts, quad)
    of each integrate call."""
    disc = co.build(4, 96)
    src, _ = cli._smooth_test_source(disc, remove_projection=False)
    rho_test = disc.nodes[(disc.nodes >= 0.05) & (disc.nodes <= 0.95)]
    calls, lowest, layouts = [0], [1.0], []
    batch_rhs, integrate = ro._batch_rhs, gr.integrate

    def counted_rhs(*args):
        f = batch_rhs(*args)

        def counted(x, y):
            calls[0] += 1
            lowest[0] = min(lowest[0], float(np.min(x)))
            return f(x, y)
        return counted

    def recorded(d, lam_arr, variant, pts, rtol, quad=None):
        layouts.append((pts, quad))
        return integrate(d, lam_arr, variant, pts, rtol, quad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ro, "_batch_rhs", counted_rhs)
        mp.setattr(gr, "integrate", recorded)
        out = gr.residual_checks(4, GREEN_CHECK_LAMS, "perturbed", src,
                                 rho_test)
    assert len(rho_test) == 72
    return SimpleNamespace(out=out, calls=calls[0], lowest=lowest[0],
                           src=src, layouts=layouts)


class TestGreenCheckLayout:
    def test_rhs_calls(self, green_check_run):
        # the quadrature nodes are Hermite samples; only the output points
        # and RHO_MID are checkpoints, each one landed on
        run = green_check_run
        assert run.calls <= 40_000
        assert all(o["ode_residual"] <= 1e-6 and o["round_trip"] <= 1e-6
                   for o in run.out)

    def test_rhs_calls_with_the_gauge_pair(self, green_check_run):
        # above RHO_MID u0 is the gauge pair integrated from the handoff
        # at 1, smooth at rho = 1: 20,731 RHS calls with that handoff at
        # ONE_START, against 29,492 when RK45 carried u0 itself there
        assert green_check_run.calls <= 22_000

    def test_one_analytic_descent(self, green_check_run):
        # u1 is the u_a half of the gauge pair above RHO_MID, one run from
        # there to the handoff r0, and reduction of order below it: 8,667
        # RHS calls with the handoffs at ORIGIN_START and ONE_START,
        # against 20,731 when u1 was a second descent from ONE_START to
        # the smallest node, 2.7e-10
        run = green_check_run
        assert run.calls <= 11_000
        assert min(run.layouts[0][1].nodes) < 1e-9
        # with the series handed over at r0 and 1 - t1 of the batch's
        # largest |lam| (here both 0.1 from the endpoints): 4,917 RHS
        # calls, against 8,667 with both handoffs 1e-3 from them
        assert run.calls <= 6_000
        # no RK45 run goes below the batch's origin handoff r0: no RHS
        # call is made there
        assert run.lowest == fr.handoff(GREEN_CHECK_LAMS)[0]

    def test_integrate_matches_a_tight_reference(self, green_check_run):
        # on the quadrature nodes integrate forms only the panel sums of
        # K u0 and K u1, from each step's quintic Hermite; the reference
        # takes every node as a full point, and its sums use the same
        # green-check weights K
        run = green_check_run
        [(pts, quad)] = run.layouts
        lams = np.asarray(GREEN_CHECK_LAMS, dtype=complex)
        fresh = gr.PanelSums(4, lams, run.src, pts[pts != ro.RHO_MID])
        assert np.array_equal(fresh.nodes, quad.nodes)
        nodes, n_pts = quad.nodes, len(pts)
        assert len(nodes) > 10 * n_pts
        out = ro.integrate(4, lams, "perturbed", pts, 1e-10, fresh)
        every = np.concatenate([pts, nodes])
        order = np.argsort(every)
        ref = ro.integrate(4, lams, "perturbed", every[order], 1e-13)
        _, _, wts = gr._panel_layout(pts[pts != ro.RHO_MID])
        kern = (nodes**3 * (1.0 - nodes**2) ** (lams[:, None] - 0.5) / 2.0j
                * wts * run.src.F_lambda(nodes, lams[:, None], 4))
        grid = (len(lams), len(quad.bps) - 1, gr.GL_NODES)
        for name, u, r, sums in (("u0", out[0], ref[0], fresh.s0),
                                 ("u1", out[2], ref[2], fresh.s1)):
            r = r[:, np.argsort(order)]
            rel = (np.max(np.abs(u - r[:, :n_pts]), axis=1)
                   / np.max(np.abs(r[:, :n_pts]), axis=1))
            assert np.all(rel <= 1e-9), (name, rel)
            ku = (kern * r[:, n_pts:]).reshape(grid)
            # each panel's error relative to its sum of |K u|
            rel = np.abs(sums - ku.sum(axis=2)) / np.abs(ku).sum(axis=2)
            assert np.all(rel <= 1e-9), (name, rel.max(axis=1))


class TestKernelDecay:
    def test_decay_scan(self):
        rep = cf.kernel_decay_scan(4, 0.3, 0.6, [5.0, 10.0, 20.0, 40.0])
        assert rep["monotone"]
        assert rep["slope"] <= -0.7

    def test_zero_frequency_finite(self):
        val = abs(cf.green_eval(4, 0.1, "perturbed", 0.3, 0.6)
                  - cf.green_eval(4, 0.1, "free", 0.3, 0.6))
        assert math.isfinite(val) and val > 0

    def test_one_kernel_build_per_variant(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return build(*args)

        build = gr.build_kernel
        monkeypatch.setattr(gr, "build_kernel", counted)
        cf.kernel_decay_scan(4, 0.3, 0.6, [5.0, 10.0, 20.0, 40.0])
        assert sorted(calls) == ["free", "perturbed"]

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            cf.kernel_decay_scan(4, 0.0, 0.6, [5.0])


class TestSemigroupLaplace:
    def test_peak_memory_at_the_benchmark_config(self):
        # integrate hands the node values to the panel sums block by block,
        # so no (n_lam, n_nodes) array is formed: 27.4 MiB when u0, u1 and
        # the kernel weight were kept at every node of a batch
        disc = co.build(4, 96)
        src, _ = cli._smooth_test_source(disc)
        tracemalloc.start()
        try:
            gr.semigroup_laplace(4, 1.0, src, disc.nodes, eps=0.4,
                                 omega_max=100.0, domega=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, peak / 2**20

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

    @pytest.mark.parametrize("omega_max", [100.0, 1.0])
    def test_omega_max_off_the_domega_grid(self, monkeypatch, omega_max):
        # dw 0.3 would stop the grid at 99.9 or 0.9, short of Omega
        def unused(*args):
            raise AssertionError("no resolvent before the domain check")

        monkeypatch.setattr(gr, "_resolvent_batch", unused)
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        with pytest.raises(DomainError, match="multiple of domega"):
            gr.semigroup_laplace(4, 1.0, gr.SourceTerm(z, z, z),
                                 np.linspace(0.0, 1.0, 5), eps=0.4,
                                 omega_max=omega_max, domega=0.3)

    def test_contour_domain(self):
        d = 4
        disc = co.build(d, 48)
        src, _ = self._source(d, disc)
        with pytest.raises(DomainError):
            gr.semigroup_laplace(d, 1.0, src, disc.nodes, eps=0.7)


class TestPerturbedBessel:
    def test_model_residual_and_wronskian(self):
        rho = np.geomspace(2e-3, 0.35, 25)
        rep = cf.perturbed_bessel_check(3, 0.1 + 3.0j, rho)
        assert rep["model_residual"] <= 1e-7
        assert rep["wronskian_error"] <= 1e-8

    def test_ratio_rate(self):
        rho = np.geomspace(2e-3, 0.35, 25)
        rep = cf.perturbed_bessel_check(3, 0.1 + 3.0j, rho)
        assert abs(rep["rate_slope"] - 2.0) <= 0.3

    def test_other_dimension(self):
        rho = np.geomspace(2e-3, 0.3, 20)
        rep = cf.perturbed_bessel_check(4, 0.05 + 2.0j, rho)
        assert rep["model_residual"] <= 1e-7
        assert rep["wronskian_error"] <= 1e-8
