"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Each criterion asserts its stated tolerance and its runtime budget.
"""

import math
import time
import warnings

import numpy as np
import scipy.special

import closed_forms as cf
from closed_forms import ExplicitLambda1
from conewave import blowup as bl
from conewave import collocation as co
from conewave import evolve as ev
from conewave import green as gr
from conewave import radialode as ro
from conewave import specfun as sf
from conewave.errors import TruncationWarning


def _report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def _smooth_source(d, disc):
    f1 = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (1.0 - np.asarray(r) ** 2)
    f1p = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (
        -4.0 * np.asarray(r) * (1.0 - np.asarray(r) ** 2) - 2.0 * np.asarray(r))
    f2 = lambda r: 0.5 * np.cos(np.asarray(r)) - 0.3
    fgrid = disc.stack(f1(disc.nodes), f2(disc.nodes))
    c = float(np.real(disc.mode_coefficient(fgrid)))
    src = gr.SourceTerm(
        lambda r: f1(r) - 2.0 * c, f1p, lambda r: f2(r) - d * c)
    return src, fgrid - disc.P_mat @ fgrid


def test_criterion_1_gauge_eigenpair():
    t0 = time.time()
    residuals = {}
    for d in (3, 4, 5, 6):
        disc = co.build(d, 64)
        residuals[d] = cf.gauge_residual(disc)
    ok = all(r <= 1e-10 for r in residuals.values())
    worst = max(residuals.values())
    _report(1, ok, f"L g = g residuals <= {worst:.2e} for d in 3..6", t0, 5.0)


def test_criterion_2_spectral_gap_three_methods():
    t0 = time.time()
    d = 4
    window = lambda roots: [z for z, _ in roots
                            if z.real >= 0.05 and abs(z.imag) <= 50.0]
    disc, disc_fine = co.build(d, 64), co.build(d, 128)
    eig_p = co.unstable_eigenvalues(disc, disc_fine, re_min=0.05, im_max=50.0)
    import dataclasses
    disc0 = dataclasses.replace(disc, L_mat=disc.L0_mat)
    disc0f = dataclasses.replace(disc_fine, L_mat=disc_fine.L0_mat)
    eig_f = co.unstable_eigenvalues(disc0, disc0f, re_min=0.05, im_max=50.0)
    sh_p = window(ro.scan_halfplane(d, "perturbed", omega_max=50.0))
    sh_f = window(ro.scan_halfplane(d, "free", omega_max=50.0))
    c3_p = window(ro.scan_halfplane(d, "perturbed", omega_max=50.0, method="c3"))
    c3_f = window(ro.scan_halfplane(d, "free", omega_max=50.0, method="c3"))
    ok = (len(eig_p) == 1 and abs(eig_p[0] - 1.0) <= 1e-6
          and len(sh_p) == 1 and abs(sh_p[0] - 1.0) <= 1e-6
          and len(c3_p) == 1 and abs(c3_p[0] - 1.0) <= 1e-6
          and not eig_f and not sh_f and not c3_f)
    detail = (f"perturbed: eig={eig_p}, shooting={sh_p}, c3={c3_p}; "
              f"free: all empty={not (eig_f or sh_f or c3_f)}")
    _report(2, ok, detail, t0, 120.0)


def test_criterion_3_lambda1_closed_forms():
    t0 = time.time()
    worst_sol = worst_w = worst_small = 0.0
    rr = np.linspace(0.1, 0.9, 17)
    mid = 8  # rr[8] = 1/2, where the integrated solutions are scaled
    small = np.array([3e-10, 1e-8, 1e-6, 1e-4, 5e-4, 0.5])
    for d in (3, 4, 5, 6):
        ex = ExplicitLambda1(d)
        u0, u0p, u1, u1p = ro.integrate(d, [1.0], "free", rr, 1e-11)
        ref = ex.u0(rr)
        scale0 = complex(u0[0, mid]) / ref[mid]
        worst_sol = max(worst_sol, float(np.max(np.abs(u0[0] / scale0 - ref)
                                                / np.abs(ref))))
        ref1 = ex.u1(rr)
        scale1 = complex(u1[0, mid]) / ref1[mid]
        worst_sol = max(worst_sol, float(np.max(np.abs(u1[0] / scale1 - ref1)
                                                / np.abs(ref1))))
        w_int = u0[0] * u1p[0] - u0p[0] * u1[0]
        w_ref = ex.wronskian(rr)
        worst_w = max(worst_w, float(np.max(
            np.abs(w_int / (scale0 * scale1) - w_ref) / np.abs(w_ref))))
        # below the origin handoff, at the resolvent's rtol 1e-10: u1 ~ rho^{2-d}
        # and u1' pointwise, scaled at rho = 1/2 (the last point)
        _, _, u1, u1p = ro.integrate(d, [1.0], "free", small, 1e-10)
        scale1 = complex(u1[0, -1]) / ex.u1(0.5)
        for got, ref in ((u1[0], ex.u1(small)), (u1p[0], ex.u1_deriv(small))):
            worst_small = max(worst_small, float(np.max(
                np.abs(got / scale1 - ref) / np.abs(ref))))
    ok = worst_sol <= 1e-8 and worst_w <= 1e-8 and worst_small <= 1e-9
    _report(3, ok, f"solution mismatch {worst_sol:.2e}, "
            f"Wronskian mismatch {worst_w:.2e}, "
            f"rho <= 5e-4 mismatch {worst_small:.2e}", t0, 10.0)


def test_criterion_4_resolvent_correctness():
    t0 = time.time()
    f1 = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (1.0 - np.asarray(r) ** 2)
    f1p = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (
        -4.0 * np.asarray(r) * (1.0 - np.asarray(r) ** 2) - 2.0 * np.asarray(r))
    f2 = lambda r: 0.5 * np.cos(np.asarray(r)) - 0.3
    src = gr.SourceTerm(f1, f1p, f2)
    rho_test = np.linspace(0.06, 0.94, 23)
    worst_res = worst_rt = 0.0
    for d in (3, 4):
        for checks in gr.residual_checks(d, [2.0, 0.5 + 3.0j, 0.1 + 10.0j],
                                         "perturbed", src, rho_test):
            worst_res = max(worst_res, checks["ode_residual"])
            worst_rt = max(worst_rt, checks["round_trip"])
    ok = worst_res <= 1e-6 and worst_rt <= 1e-6
    _report(4, ok, f"ODE residual {worst_res:.2e}, round trip {worst_rt:.2e}",
            t0, 30.0)


def test_criterion_5_laplace_vs_time_stepping():
    t0 = time.time()
    d = 4
    disc = co.build(d, 96)
    src, phi0 = _smooth_source(d, disc)
    tau = 1.0
    traj = ev.evolve(disc, phi0, tau, 0.01, "linear-perturbed")
    ts = np.real(traj.states[-1][: disc.N])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        lap = gr.semigroup_laplace(d, tau, src, disc.nodes, eps=0.1,
                                   omega_max=200.0, domega=0.05)
    w = np.maximum(disc.quad_weights, 0.0)
    rel = math.sqrt(float(np.sum(w * (lap - ts) ** 2) / np.sum(w * ts**2)))
    _report(5, rel <= 1e-2, f"relative L2 difference {rel:.2e} at "
            f"(eps, Omega, dw) = (0.1, 200, 0.05)", t0, 120.0)


def test_criterion_6_semigroup_growth():
    t0 = time.time()
    d = 4
    disc = co.build(d, 96)
    traj = ev.evolve(disc, disc.g_disc, 3.0, 0.01, "linear-perturbed")
    gauge_err = float(np.max(np.abs(traj.states[-1] - math.exp(3.0)
                                    * disc.g_disc))) / (math.exp(3.0) * d)
    rng = np.random.default_rng(17)
    bound_ok = True
    for _ in range(5):
        f = co.random_smooth_pair(disc, rng)
        phi0 = f - disc.P_mat @ f
        tr = ev.evolve(disc, phi0, 10.0, 0.01, "linear-perturbed")
        bound = 10.0 * np.exp(0.05 * tr.taus) * tr.energy_norms[0]
        bound_ok &= bool(np.all(tr.energy_norms <= bound))
    ok = gauge_err <= 1e-5 and bound_ok
    _report(6, ok, f"gauge flow error {gauge_err:.2e} at tau=3; "
            f"stable sector within 10 e^(0.05 tau)", t0, 60.0)


def test_criterion_7_dissipativity():
    t0 = time.time()
    worst = -math.inf
    for d in (3, 4, 5, 6):
        disc = co.build(d, 64)
        worst = max(worst, cf.dissipativity_check(disc, 100, seed=d))
    _report(7, worst <= 1e-8, f"max Rayleigh quotient {worst:.2e} "
            "over 100 random pairs per dimension", t0, 10.0)


def test_criterion_8_strichartz_boundedness():
    t0 = time.time()
    d = 4
    disc = co.build(d, 96)
    pairs = [(2.0, 8.0), (math.inf, 4.0)]
    report = ev.strichartz_suite(disc, pairs, tau_max=16.0, dtau=0.01,
                                 n_samples=10, seed=23)
    finite = bool(np.all(np.isfinite(report["ratios"])))
    spread_ok = bool(np.all(report["spread"] <= 3.0))
    drift = float(np.max(np.abs(report["ratios"] - report["ratios_half"])
                         / report["ratios"]))
    ok = finite and spread_ok and drift <= 0.05
    _report(8, ok, f"ratios finite, spread {report['spread'].round(2)}, "
            f"horizon-doubling drift {drift:.2%}", t0, 300.0)


def test_criterion_9_nonlinear_stability():
    t0 = time.time()
    d, delta = 4, 0.1
    disc = co.build(d, 96)
    fit = bl.fit_blowup_time(disc, bl.bump_perturbation(delta, 0.05),
                             tau_max=12.0)
    rep = bl.stability_report(fit, tau_eval=10.0)
    fit_half = bl.fit_blowup_time(disc, bl.bump_perturbation(delta, 0.025),
                                  tau_max=12.0)
    rep_half = bl.stability_report(fit_half, tau_eval=10.0)
    ratio = rep["S_phys"] / rep_half["S_phys"]
    ok = (0.9 < fit.T_star < 1.1
          and rep["sup_deviation"] <= 1e-3
          and rep["identity_rel_err"] <= 1e-3
          and 3.0 <= ratio <= 5.0)
    _report(9, ok, f"T*={fit.T_star:.6f}, sup dev {rep['sup_deviation']:.1e}, "
            f"S_sim=S_phys to {rep['identity_rel_err']:.1e}, "
            f"halving ratio {ratio:.2f}", t0, 600.0)


def test_criterion_10_kernel_decay():
    t0 = time.time()
    rep = cf.kernel_decay_scan(4, 0.3, 0.6, [5.0, 10.0, 20.0, 40.0], eps=0.1)
    ok = rep["slope"] <= -0.7 and rep["monotone"]
    _report(10, ok, f"|G - G_f| log-log slope {rep['slope']:.3f}, monotone",
            t0, 60.0)


def test_criterion_11_special_function_anchors():
    t0 = time.time()
    e1 = abs(sf.gamma_c(0.5) - math.sqrt(math.pi))
    e2 = abs(cf.hyp2f1(1.0, 1.0, 2.0, 0.5) - 2.0 * math.log(2.0))
    e3 = cf.hyp2f1(1.7 - 2.0j, 0.0, 2.5, 0.37)
    z = 1.3 + 0.7j
    w = (scipy.special.jv(1.5, z) * scipy.special.yvp(1.5, z)
         - scipy.special.jvp(1.5, z) * scipy.special.yv(1.5, z))
    e4 = abs(w - 2.0 / (math.pi * z)) * abs(math.pi * z / 2.0)
    ok = (e1 <= 1e-13 and e2 <= 1e-12 and e3 == 1.0 and e4 <= 1e-8)
    _report(11, ok, f"Gamma(1/2) err {e1:.1e}, 2F1 log err {e2:.1e}, "
            f"b=0 exact, Wronskian err {e4:.1e}", t0, 1.0)
