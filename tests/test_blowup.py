import math
import time

import numpy as np
import pytest

from conewave import blowup as bl
from conewave import collocation as co
from conewave.errors import DomainError, NoBracketError, SecantFailure

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def disc():
    return co.build(4, 96)


@pytest.fixture(scope="module")
def bump_fit(disc):
    v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
    return v, bl.fit_blowup_time(4, v, tau_max=12.0, disc=disc)


class TestInitialData:
    def test_zero_at_tuned_time(self, disc):
        u = bl.initial_data(4, 1.0, bl.zero_perturbation(), disc)
        assert np.max(np.abs(u)) == 0.0

    def test_tangent_is_gauge_mode(self, disc):
        # d/dT U(T,0)|_{T=1} = (d-2)/4 c_d g; d=4: (sqrt2, 2 sqrt2)
        h = 1e-6
        v0 = bl.zero_perturbation()
        up = bl.initial_data(4, 1.0 + h, v0, disc)
        um = bl.initial_data(4, 1.0 - h, v0, disc)
        tangent = (up - um) / (2.0 * h)
        expect = np.concatenate([np.full(96, SQRT2), np.full(96, 2.0 * SQRT2)])
        assert np.max(np.abs(tangent - expect)) <= 1e-8

    def test_small_detuning_linearization(self, disc):
        u = bl.initial_data(4, 1.01, bl.zero_perturbation(), disc)
        expect = 0.01 * np.concatenate(
            [np.full(96, SQRT2), np.full(96, 2.0 * SQRT2)])
        assert np.max(np.abs(u - expect)) <= 2e-4

    def test_domain_gate(self, disc):
        with pytest.raises(DomainError):
            bl.initial_data(4, 1.2, bl.zero_perturbation(0.1), disc)
        with pytest.raises(DomainError):
            bl.initial_data(7, 1.0, bl.zero_perturbation(), disc)


class TestFit:
    def test_zero_perturbation_fixed_point(self, disc):
        fit = bl.fit_blowup_time(4, bl.zero_perturbation(), tau_max=8.0,
                                 disc=disc)
        assert abs(fit.T_star - 1.0) <= 1e-9
        assert fit.monotone
        # T = 1 is a grid point with identically zero data: no secant step
        assert fit.T_star == 1.0
        assert fit.residual_mode == 0.0
        assert fit.n_evolutions == 6

    def test_gauge_direction_linear_response(self, disc):
        # v = a g scales the data along the gauge mode:
        # T* = 1 - a/((d-2) c_d / 4) + O(a^2)
        a = 1e-3
        v = bl.PerturbationData(
            v1=lambda r: 2.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            v2=lambda r: 4.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            delta=0.1, amplitude=a)
        fit = bl.fit_blowup_time(4, v, tau_max=10.0, disc=disc)
        predicted = 1.0 - a / ((4 - 2) * SQRT2 / 4.0)
        assert abs(fit.T_star - predicted) <= 30.0 * a * a

    def test_bump_experiment(self, disc, bump_fit):
        v, fit = bump_fit
        assert 0.9 < fit.T_star < 1.1
        assert fit.monotone
        phi0 = bl.initial_data(4, fit.T_star, v, disc)
        tol = 1e-8 * co.energy_norm(disc, phi0)
        assert fit.residual_mode <= max(tol, 1e-9)
        rep = bl.stability_report(fit, 4, 0.1, disc)
        assert rep["identity_rel_err"] <= 1e-3
        assert rep["sup_deviation"] <= 1e-3
        assert rep["delta_sq_bound"]
        # convergence to the blowup profile: sup deviation decreasing late
        traj = fit.trajectory
        sups = np.array([np.max(np.abs(s[:96])) for s in traj.states])
        late = sups[traj.taus >= 5.0]
        assert np.all(np.diff(late) <= 1e-12)

    def test_secant_matches_bisection(self, bump_fit):
        # T* of the 47-evolution bisection to width 1e-14 it replaced
        _, fit = bump_fit
        assert abs(fit.T_star - 0.9995089928555445) <= 1e-13
        assert fit.n_evolutions <= 12
        assert fit.bracket[1] == fit.T_star

    def test_never_linear_raises(self, disc, never_linear):
        with pytest.raises(SecantFailure, match="for the pair T="):
            bl.fit_blowup_time(4, bl.zero_perturbation(), tau_max=1.0,
                               disc=disc)

    def test_refinement_error(self, disc, bump_fit):
        v, fit = bump_fit
        err = bl.refinement_error(fit, v)
        assert 0.0 <= err["T_star_err"] <= 1e-12
        s_phys = bl.stability_report(fit, 4, 0.1, disc)["S_phys"]
        assert 0.0 < err["S_phys_err"] <= 1e-3 * s_phys
        assert 4 <= err["n_evolutions_err"] <= 8

    def test_refinement_error_needs_even_steps(self, disc):
        v = bl.zero_perturbation()
        traj = bl.evolve(disc, bl.initial_data(4, 1.0, v, disc), 0.03, 0.01,
                         "nonlinear")
        fit = bl.FitResult(T_star=1.0, residual_mode=0.0, trajectory=traj,
                           bracket=(1.0, 1.0), monotone=True, n_evolutions=1)
        with pytest.raises(DomainError, match="multiple of 2 dtau"):
            bl.refinement_error(fit, v)

    def test_no_bracket(self, disc):
        # a perturbation dominated by the gauge mode with tiny delta cannot
        # flip the late coefficient inside the bracket
        a = 0.08
        v = bl.PerturbationData(
            v1=lambda r: 2.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            v2=lambda r: 4.0 * a * np.ones_like(np.asarray(r, dtype=float)),
            delta=0.02, amplitude=a)
        with pytest.raises(NoBracketError):
            bl.fit_blowup_time(4, v, tau_max=8.0, disc=disc)


def test_paper_dimension_range():
    # the paper's nonlinear stability covers 3 <= d <= 6
    t0 = time.time()
    for d in (3, 4, 5, 6):
        disc = co.build(d, 48)
        v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
        fit = bl.fit_blowup_time(d, v, tau_max=12.0, disc=disc)
        err = bl.refinement_error(fit, v)
        rep = bl.stability_report(fit, d, 0.1, disc)
        assert fit.monotone, d
        assert fit.n_evolutions <= 12, d
        assert err["T_star_err"] <= 1e-10, d
        assert rep["identity_rel_err"] <= 1e-3, d
    assert time.time() - t0 < 30.0, "exceeded the 30 s budget"


class TestInstabilityDemo:
    def test_rates_and_signs(self, disc):
        rep = bl.instability_demo(4, tau_max=10.0, disc=disc)
        for T, slope in rep["slopes"].items():
            assert abs(slope - 1.0) <= 0.05
        assert rep["signs"][1.02] > 0 > rep["signs"][0.98]
        assert rep["tuned_max_coeff"] <= 1e-8


class TestPerturbationData:
    def test_delta_gate(self):
        with pytest.raises(DomainError):
            bl.zero_perturbation(delta=0.7)

    def test_bump_support(self):
        v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
        assert v.v1(1.05) == 0.0
        assert v.v1(0.0) == pytest.approx(0.05)
        assert v.v1(1.1) == 0.0
