import math
import time

import numpy as np
import pytest

from conewave import blowup as bl
from conewave import collocation as co
from conewave.errors import DomainError, NoBracketError, SecantFailure
from conewave.model import c_d

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def disc():
    return co.build(4, 96)


@pytest.fixture(scope="module")
def bump_run(disc, record_evolutions):
    """The bump fit and the log of its evolutions."""
    with pytest.MonkeyPatch.context() as mp:
        log = record_evolutions(mp)
        fit = bl.fit_blowup_time(
            disc, bl.bump_perturbation(delta=0.1, amplitude=0.05),
            tau_max=12.0)
    return fit, log


@pytest.fixture(scope="module")
def bump_fit(bump_run):
    return bump_run[0]


@pytest.fixture(scope="module")
def rough_fit():
    """The fit at d 4, N 48 to data with a kink and a jump inside the
    cone, v1 = 0.05 (1 - r/0.5)_+ and v2 = 0.05 1_{r<0.5}."""
    v = bl.PerturbationData(
        v1=lambda r: 0.05 * np.clip(1.0 - np.asarray(r) / 0.5, 0.0, None),
        v2=lambda r: 0.05 * (np.asarray(r) < 0.5), delta=0.1, amplitude=0.05)
    return bl.fit_blowup_time(co.build(4, 48), v, tau_max=12.0)


class TestInitialData:
    def test_zero_at_tuned_time(self, disc):
        u = bl.initial_data(disc, 1.0, bl.zero_perturbation())
        assert np.max(np.abs(u)) == 0.0

    def test_tangent_is_gauge_mode(self, disc):
        # d/dT U(T,0)|_{T=1} = (d-2)/4 c_d g; d=4: (sqrt2, 2 sqrt2)
        h = 1e-6
        v0 = bl.zero_perturbation()
        up = bl.initial_data(disc, 1.0 + h, v0)
        um = bl.initial_data(disc, 1.0 - h, v0)
        tangent = (up - um) / (2.0 * h)
        expect = np.concatenate([np.full(96, SQRT2), np.full(96, 2.0 * SQRT2)])
        assert np.max(np.abs(tangent - expect)) <= 1e-8

    def test_small_detuning_linearization(self, disc):
        u = bl.initial_data(disc, 1.01, bl.zero_perturbation())
        expect = 0.01 * np.concatenate(
            [np.full(96, SQRT2), np.full(96, 2.0 * SQRT2)])
        assert np.max(np.abs(u - expect)) <= 2e-4

    def test_domain_gate(self, disc):
        with pytest.raises(DomainError):
            bl.initial_data(disc, 1.2, bl.zero_perturbation(0.1))
        # N 24 builds at d 7 (N 16 does not), so the nonlinear gate raises
        with pytest.raises(DomainError, match="require 3 <= d <= 6"):
            bl.initial_data(co.build(7, 24), 1.0, bl.zero_perturbation())


class TestFit:
    def test_zero_perturbation_fixed_point(self, disc, evolutions,
                                           fit_stages):
        fit = bl.fit_blowup_time(disc, bl.zero_perturbation(), tau_max=8.0)
        assert abs(fit.T_star - 1.0) <= 1e-9
        assert fit.monotone
        # T = 1 is a grid point with identically zero data: no secant step
        # on either grid, and the fine stage is one run whose Newton step
        # stays at T_c
        assert fit.T_star == 1.0 and fit.bracket == (1.0, 1.0)
        assert fit.residual_mode == 0.0
        assert fit.n_evolutions == 6
        coarse, fine = fit_stages(evolutions, 6, 96, tau_max=8.0)
        assert [entry[2] for entry in coarse] == [5]
        assert fine == [(96, 0.01, 1, 800)]

    def test_gauge_direction_linear_response(self, disc):
        # v = a g scales the data along the gauge mode:
        # T* = 1 - a/((d-2) c_d / 4) + O(a^2)
        a = 1e-3
        v = bl.PerturbationData(
            v1=lambda r: 2.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            v2=lambda r: 4.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            delta=0.1, amplitude=a)
        fit = bl.fit_blowup_time(disc, v, tau_max=10.0)
        predicted = 1.0 - a / ((4 - 2) * SQRT2 / 4.0)
        assert abs(fit.T_star - predicted) <= 30.0 * a * a

    def test_bump_experiment(self, disc, bump_fit):
        fit = bump_fit
        assert 0.9 < fit.T_star < 1.1
        assert fit.monotone
        phi0 = bl.initial_data(disc, fit.T_star, fit.v)
        tol = 1e-8 * co.energy_norm(disc, phi0)
        assert fit.residual_mode <= max(tol, 1e-9)
        rep = bl.stability_report(fit)
        assert rep["identity_rel_err"] <= 1e-3
        assert rep["sup_deviation"] <= 1e-3
        assert rep["delta_sq_bound"]
        # convergence to the blowup profile: sup deviation decreasing late
        traj = fit.trajectory
        sups = np.array([np.max(np.abs(s[:96])) for s in traj.states])
        late = sups[traj.taus >= 5.0]
        assert np.all(np.diff(late) <= 1e-12)

    def test_secant_matches_bisection(self, bump_run, fit_stages):
        # T* of the 47-evolution bisection to width 1e-14 it replaced
        fit, log = bump_run
        assert abs(fit.T_star - 0.9995089928555445) <= 1e-13
        fit_stages(log, fit.n_evolutions, 96)
        assert fit.bracket[1] == fit.T_star

    def test_never_linear_raises(self, disc, never_linear):
        with pytest.raises(SecantFailure, match="for the pair T="):
            bl.fit_blowup_time(disc, bl.zero_perturbation(), tau_max=1.0)

    def test_warm_start_outside_the_window_raises(self):
        # c(0) of a run this far from T* is already outside the window,
        # where no slope holds
        with pytest.raises(SecantFailure, match="leaves the linear window"):
            bl._newton_step(co.build(4, 32), bl.zero_perturbation(), 4.0,
                            0.01, 1.05, 1.0)

    def test_refinement_error(self, bump_fit):
        err = bl.refinement_error(bump_fit)
        assert 0.0 <= err["T_star_err"] <= 1e-12
        s_phys = bl.stability_report(bump_fit)["S_phys"]
        assert 0.0 < err["S_phys_err"] <= 1e-3 * s_phys
        assert err["n_evolutions_err"] == 2

    def test_refit_newton_step_matches_a_converged_secant(self):
        # each re-fit's one-run Newton step with the fit's slope against a
        # secant from the stacked pair (T* + 1e-9, T*), run to SECANT_STEP
        # on the re-fit's own discretisation
        disc48 = co.build(4, 48)
        fit = bl.fit_blowup_time(
            disc48, bl.bump_perturbation(delta=0.1, amplitude=0.05),
            tau_max=12.0)
        T, shifts = fit.T_star, []
        for disc_r, dtau_r in ((disc48, 0.02), (fit.coarse, 0.01)):
            t_newton = bl._newton_step(disc_r, fit.v, 12.0, dtau_r, T,
                                       fit.slope)[0]
            older, newer = bl._evolve_at(disc_r, (T + 1e-9, T), fit.v,
                                         12.0, dtau_r)
            t_secant = bl._secant(disc_r, fit.v, 12.0, dtau_r,
                                  (T + 1e-9, older), (T, newer),
                                  bl.SECANT_STEP)[0]
            assert abs(t_newton - t_secant) <= 1e-15, (disc_r.N, dtau_r)
            shifts.append(abs(t_newton - T))
        assert bl.refinement_error(fit)["T_star_err"] == max(shifts)

    def test_fit_to_data_the_coarse_grid_does_not_resolve(self, rough_fit):
        # the coarse T* lies ~1e-5 off and the linear window spans ~1e-7
        # in T, so the fine warm start leaves it; 0.9994025339870205 is
        # the T* of the stacked-pair secant that the one-state warm starts
        # replaced
        assert abs(rough_fit.T_star - 0.9994025339870205) <= 1e-13
        assert rough_fit.residual_mode <= 1e-9
        assert rough_fit.n_evolutions == 16

    def test_refinement_error_on_data_the_coarse_grid_does_not_resolve(
            self, rough_fit):
        # T* leaves the coarse re-fit's window too, so its Newton step is
        # read early and a secant finishes it; the stacked-pair re-fits
        # read 6.844733752531e-5
        err = bl.refinement_error(rough_fit)
        assert abs(err["T_star_err"] - 6.844733752531e-5) <= 1e-13
        assert err["n_evolutions_err"] == 7

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_gauge_slope_is_the_linear_growth(self, d):
        # the slope of the Newton steps, dc(tau_max)/dT, is the gauge
        # mode's growth e^tau_max times l(d_T U0) = (d-2) c_d / 4 (read
        # 4.9e-3 off at d 3, 5.0e-4 at d 4, 7.6e-6 at d 5, 6.4e-5 at d 6)
        fit = bl.fit_blowup_time(
            co.build(d, 48), bl.bump_perturbation(delta=0.1, amplitude=0.05),
            tau_max=12.0)
        linear = math.exp(12.0) * (d - 2) * c_d(d) / 4.0
        assert abs(fit.slope - linear) <= 1e-2 * linear

    def test_s_phys_tau_quadrature(self):
        # S_phys is fourth order in dtau: re-fits at 2 dtau and dtau/2
        # move it by <= 1e-6 relative (the second-order rule moved it by
        # 6.4e-4 and 3.3e-5 here)
        small, v = co.build(4, 32), bl.bump_perturbation(delta=0.1,
                                                         amplitude=0.05)
        s_phys = {dtau: bl.stability_report(bl.fit_blowup_time(
            small, v, tau_max=4.0, dtau=dtau), 4.0)["S_phys"]
            for dtau in (0.005, 0.01, 0.02)}
        for dtau in (0.005, 0.02):
            assert abs(s_phys[dtau] - s_phys[0.01]) <= 1e-6 * s_phys[0.01]

    def test_refinement_error_needs_even_steps(self, disc):
        v = bl.zero_perturbation()
        traj = bl.evolve(disc, bl.initial_data(disc, 1.0, v), 0.03, 0.01,
                         "nonlinear")
        fit = bl.FitResult(T_star=1.0, trajectory=traj, bracket=(1.0, 1.0),
                           monotone=True, n_evolutions=1, slope=1.0, v=v,
                           coarse=bl._coarse_grid(disc))
        with pytest.raises(DomainError, match="multiple of 2 dtau"):
            bl.refinement_error(fit)

    def test_odd_step_count_fits_coarse_at_a_divisor(self, evolutions,
                                                     fit_stages):
        # 401 steps have no 4 dtau grid: the coarse stage takes the
        # divisor of tau_max nearest it, 100 steps of 0.0401
        fit = bl.fit_blowup_time(
            co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
            tau_max=4.01)
        coarse, _ = fit_stages(evolutions, fit.n_evolutions, 32,
                               tau_max=4.01)
        assert coarse[0] == (21, 4.01 / 100, 5, 100)

    @pytest.mark.parametrize("d, N", [(4, 24), (4, 27), (6, 26)])
    def test_coarse_grid_is_one_build_accepts(self, d, N, evolutions,
                                              fit_stages):
        # round(2N/3) is 16, 18 and 17 here, sizes whose quadrature weights
        # go negative at this d; the coarse grid is floored at N' = 19
        fit = bl.fit_blowup_time(
            co.build(d, N), bl.bump_perturbation(delta=0.1, amplitude=0.05),
            tau_max=4.0)
        assert fit.coarse.N == 19 and 0.9 < fit.T_star < 1.1
        fit_stages(evolutions, fit.n_evolutions, N, tau_max=4.0)
        assert bl.refinement_error(fit)["T_star_err"] <= 1e-12

    def test_dimension_gate_precedes_the_coarse_grid(self):
        # N 24 builds at d 7 but its coarse grid (N' 19) does not, so the
        # fit must raise the nonlinear gate before it builds that grid
        with pytest.raises(DomainError, match="require 3 <= d <= 6"):
            bl.fit_blowup_time(co.build(7, 24), bl.zero_perturbation(),
                               tau_max=1.0)

    def test_no_bracket(self, disc):
        # a perturbation dominated by the gauge mode with tiny delta cannot
        # flip the late coefficient inside the bracket
        a = 0.08
        v = bl.PerturbationData(
            v1=lambda r: 2.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            v2=lambda r: 4.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            delta=0.02, amplitude=a)
        with pytest.raises(NoBracketError):
            bl.fit_blowup_time(disc, v, tau_max=8.0)


# T* of the fine-grid-only fit that the coarse-to-fine fit replaced
# (d: T*, N 48, amplitude 0.05)
FINE_ONLY_T_STAR = {3: 0.9951052320321053, 4: 0.9995089928555495,
                    5: 0.9999675959761654, 6: 1.0000067869327314}


def test_paper_dimension_range(evolutions, fit_stages):
    # the paper's nonlinear stability covers 3 <= d <= 6
    t0 = time.time()
    for d in (3, 4, 5, 6):
        disc = co.build(d, 48)
        v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
        evolutions.clear()
        fit = bl.fit_blowup_time(disc, v, tau_max=12.0)
        err = bl.refinement_error(fit)
        rep = bl.stability_report(fit)
        assert fit.monotone, d
        fit_stages(evolutions, fit.n_evolutions, 48)
        # the coarse stage only moves the fine secant's start
        assert abs(fit.T_star - FINE_ONLY_T_STAR[d]) <= 1e-14, d
        # resolved below the secant's stopping step (3e-15 at d 6)
        assert 0.0 < err["T_star_err"] <= 1e-10, d
        assert rep["identity_rel_err"] <= 1e-3, d
    assert time.time() - t0 < 30.0, "exceeded the 30 s budget"


class TestInstabilityDemo:
    def test_rates_and_signs(self, disc):
        rep = bl.instability_demo(disc, tau_max=10.0)
        for T, slope in rep["slopes"].items():
            assert abs(slope - 1.0) <= 0.05
        assert rep["signs"][1.02] > 0 > rep["signs"][0.98]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_growth_slope_at_every_d(self, d):
        # the window spans a factor 2 over the detuned data's coefficient,
        # (d-2)/4 of a fixed 0.02 c_d bound, so d 6 reports slopes too
        rep = bl.instability_demo(co.build(d, 32), tau_max=10.0)
        for T, slope in rep["slopes"].items():
            assert slope is not None and abs(slope - 1.0) <= 0.1, (d, T)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_run_ends_with_its_window(self, d):
        # the pair stops once its slope window has closed; a run to
        # tau_max gives the same slopes, bit for bit, and the same signs
        small = co.build(d, 32)
        rep = bl.instability_demo(small, tau_max=10.0)
        pair = (1.0 - bl.DETUNE, 1.0 + bl.DETUNE)
        full = bl._evolve_at(small, pair, bl.zero_perturbation(delta=0.05),
                             10.0, 0.01)
        for T, traj in zip(pair, full):
            c = np.real(traj.mode_coeffs)
            window = ((np.abs(c) >= abs(c[0]))
                      & (np.abs(c) <= bl.growth_limit(d)))
            slope = None
            if np.sum(window) >= 5:
                slope = float(np.polyfit(traj.taus[window],
                                         np.log(np.abs(c[window])), 1)[0])
            assert rep["slopes"][T] == slope, (d, T)
            assert rep["signs"][T] == np.sign(c[np.abs(c) > 0][-1]), (d, T)


class TestPerturbationData:
    def test_delta_gate(self):
        with pytest.raises(DomainError):
            bl.zero_perturbation(delta=0.7)

    def test_bump_support(self):
        v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
        assert v.v1(1.05) == 0.0
        assert v.v1(0.0) == pytest.approx(0.05)
        assert v.v1(1.1) == 0.0
