import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave import blowup as bl
from conewave import collocation as co
from conewave import evolve as ev
from conewave.errors import DomainError, NotConvergedWarning
from conewave.model import nonlinearity, strichartz_pairs


@pytest.fixture(scope="module")
def disc():
    return co.build(4, 96)


class TestStep:
    def test_gauge_eigenflow(self, disc):
        traj = ev.evolve(disc, disc.g_disc, 1.0, 0.01, "linear-perturbed")
        ref = math.e * disc.g_disc
        assert np.max(np.abs(traj.states[-1] - ref)) <= 1e-6 * np.max(ref)

    def test_zero_fixed_point(self, disc):
        traj = ev.evolve(disc, np.zeros(192), 1.0, 0.01, "nonlinear")
        assert np.max(np.abs(traj.states[-1])) == 0.0

    def test_free_mode_contractive(self, disc):
        rng = np.random.default_rng(1)
        u = co.random_smooth_pair(disc, rng)
        traj = ev.evolve(disc, u, 2.0, 0.01, "linear-free")
        growth = traj.energy_norms[1:] / traj.energy_norms[:-1]
        assert np.max(growth) <= 1.001

    def test_invariant_subspace(self, disc):
        rng = np.random.default_rng(3)
        f = co.random_smooth_pair(disc, rng)
        phi0 = f - disc.P_mat @ f
        traj = ev.evolve(disc, phi0, 10.0, 0.01, "linear-perturbed")
        scale = co.sobolev_norm(disc, f)
        assert np.max(np.abs(traj.mode_coeffs)) <= 1e-6 * scale

    def test_mode_coefficient_eigenflow(self, disc):
        traj = ev.evolve(disc, disc.g_disc, 3.0, 0.01, "linear-perturbed")
        expect = np.exp(traj.taus)
        rel = np.abs(traj.mode_coeffs - expect) / expect
        assert np.max(rel) <= 1e-5

    def test_stable_sector_bound(self, disc):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = co.random_smooth_pair(disc, rng)
            phi0 = f - disc.P_mat @ f
            traj = ev.evolve(disc, phi0, 10.0, 0.01, "linear-perturbed")
            bound = 10.0 * np.exp(0.05 * traj.taus) * traj.energy_norms[0]
            assert np.all(traj.energy_norms <= bound)

    def test_step_halving_order(self, disc):
        rng = np.random.default_rng(7)
        phi0 = 0.05 * co.random_smooth_pair(disc, rng)
        ends = {}
        for dt in (0.04, 0.02, 0.01):
            ends[dt] = ev.evolve(disc, phi0, 1.0, dt, "nonlinear").states[-1]
        e_coarse = np.linalg.norm(ends[0.04] - ends[0.01])
        e_fine = np.linalg.norm(ends[0.02] - ends[0.01])
        order = math.log2(e_coarse / e_fine)
        assert order >= 3.5

    def test_blowup_detection(self, disc):
        phi0 = disc.stack(np.full(96, 3.0), np.zeros(96))
        traj = ev.evolve(disc, phi0, 20.0, 0.01, "nonlinear")
        assert traj.blowup_tau is not None
        assert np.max(np.abs(traj.states[-1])) > ev.BLOWUP_SUP

    def test_tau_cap(self, disc):
        with pytest.raises(DomainError):
            ev.evolve(disc, disc.g_disc, 60.0, 0.01, "linear-free")


class TestLqNorm:
    def test_constant_anchor(self, disc):
        # |S^3| = 2 pi^2, int rho^3 = 1/4
        val = ev.lq_norm(disc, np.ones(96), 2.0)
        assert val == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-10)

    def test_monomial_anchor(self, disc):
        # u = rho: (2 pi^2 int rho^{q+3})^{1/q}
        q = 4.0
        ref = (2.0 * math.pi**2 / (q + 4.0)) ** (1.0 / q)
        assert ev.lq_norm(disc, disc.nodes, q) == pytest.approx(ref, abs=1e-10)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, c):
        d4 = co.build(4, 32)
        u = np.cos(d4.nodes)
        a = ev.lq_norm(d4, c * u, 6.0)
        b = c * ev.lq_norm(d4, u, 6.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_sup_norm(self, disc):
        u = disc.nodes**2
        assert ev.lq_norm(disc, u, math.inf) == 1.0

    def test_q_gate(self, disc):
        with pytest.raises(DomainError):
            ev.lq_norm(disc, np.ones(96), 1.5)

    @pytest.mark.parametrize("q", [4.0, 8.0, math.inf])
    def test_stack_matches_per_state(self, disc, q):
        rng = np.random.default_rng(3)
        u1 = np.array([co.random_smooth_pair(disc, rng)[:96] for _ in range(6)])
        stacked = ev.lq_norm(disc, u1, q)
        single = np.array([ev.lq_norm(disc, u, q) for u in u1])
        assert np.max(np.abs(stacked - single)) <= 1e-14 * np.max(single)


def _top_cheb_reference(disc, u1):
    """Top even-Chebyshev coefficient of u1 over its sup norm, as a sum."""
    n = disc.N - 1
    vals = np.asarray(u1)[::-1]  # z grid is the reversed rho grid
    halv = np.ones(n + 1)
    halv[0] = halv[-1] = 0.5
    c_top = (1.0 / n) * np.sum(halv * np.cos(np.pi * np.arange(n + 1)) * vals)
    return abs(c_top) / (np.max(np.abs(vals)) + 1e-300)


class TestAliasMonitor:
    def test_matches_per_state(self, disc):
        # data with a sizeable top mode T_n(2 rho^2 - 1), n = N - 1
        z = 2.0 * disc.nodes**2 - 1.0
        top = np.cos((disc.N - 1) * np.arccos(np.clip(z, -1.0, 1.0)))
        rng = np.random.default_rng(4)
        phi0 = (0.05 * co.random_smooth_pair(disc, rng)
                + disc.stack(0.01 * top, np.zeros(disc.N)))
        traj = ev.evolve(disc, phi0, 0.5, 0.01, "nonlinear")
        assert traj.alias_indicator > 0.1
        sampled = traj.states[:: max(1, (len(traj.taus) - 1) // 50), : disc.N]
        ref = max(_top_cheb_reference(disc, u1) for u1 in sampled)
        assert traj.alias_indicator == pytest.approx(ref, rel=1e-14)


def _strichartz_norm(traj, p, q):
    """The suite's L^p_tau L^q_rho norm of one trajectory and its tail
    warning, from ``_strichartz_with_tail`` and ``_warn_tail``."""
    g = ev.lq_norm(traj.disc, traj.states[:, : traj.disc.N], q)
    norm, share = ev._strichartz_with_tail(g, traj.taus, p)
    ev._warn_tail(share, p, q, traj.tau_max)
    return norm


class TestStrichartzNorm:
    def _constant_traj(self, disc, u1, tau_max=2.0):
        state = disc.stack(u1, np.zeros_like(u1))
        n = int(tau_max / 0.1)
        taus = np.arange(n + 1) * 0.1
        states = np.tile(state, (n + 1, 1))
        return ev.EvolutionTrajectory(
            disc=disc, dtau=0.1, mode="linear-free", taus=taus, states=states)

    def test_constant_trajectory(self, disc):
        u1 = np.cos(disc.nodes)
        traj = self._constant_traj(disc, u1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            val = _strichartz_norm(traj, 2.0, 8.0)
        ref = math.sqrt(2.0) * ev.lq_norm(disc, u1, 8.0)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_zero_trajectory(self, disc):
        traj = self._constant_traj(disc, np.zeros(96))
        assert _strichartz_norm(traj, 2.0, 8.0) == 0.0

    def test_not_converged_warning(self, disc):
        traj = self._constant_traj(disc, np.ones(96))
        with pytest.warns(NotConvergedWarning):
            _strichartz_norm(traj, 2.0, 8.0)

    def test_geometric_decay(self, disc):
        # e^{-tau} profile: L^2_tau norm = lq / sqrt(2) at tau_max >> 1
        u1 = np.cos(disc.nodes)
        state = disc.stack(u1, np.zeros_like(u1))
        taus = np.arange(0, 2001) * 0.01
        states = np.exp(-taus)[:, None] * state[None, :]
        traj = ev.EvolutionTrajectory(
            disc=disc, dtau=0.01, mode="linear-free", taus=taus, states=states)
        val = _strichartz_norm(traj, 2.0, 8.0)
        ref = ev.lq_norm(disc, u1, 8.0) / math.sqrt(2.0)
        assert val == pytest.approx(ref, rel=1e-3)

    def test_sup_in_time(self, disc):
        u1 = np.cos(disc.nodes)
        traj = self._constant_traj(disc, u1)
        val = _strichartz_norm(traj, math.inf, 4.0)
        assert val == pytest.approx(ev.lq_norm(disc, u1, 4.0), rel=1e-12)


class TestSuite:
    def test_gauge_data_all_zero(self, disc):
        # f = g has (I-P) f = 0: all ratios vanish
        report = ev.strichartz_suite(disc, [(2.0, 8.0)], tau_max=1.0,
                                     n_samples=1, seed=0)
        f = disc.g_disc
        phi0 = f - disc.P_mat @ f
        assert np.max(np.abs(phi0)) <= 1e-12
        traj = ev.evolve(disc, phi0, 1.0, 0.01, "linear-perturbed")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            assert _strichartz_norm(traj, 2.0, 8.0) <= 1e-12

    def test_small_suite(self, disc):
        report = ev.strichartz_suite(disc, [(2.0, 8.0), (math.inf, 4.0)],
                                     tau_max=16.0, n_samples=4, seed=1)
        assert np.all(np.isfinite(report["ratios"]))
        assert np.all(report["spread"] <= 3.0)
        drift = np.abs(report["ratios"] - report["ratios_half"]) / report["ratios"]
        assert np.max(drift) <= 0.05

    def test_stacked_segments_match_single_runs(self):
        # each sample stepped through evolve on its own and its norms read
        # from the whole trajectory; 737 steps leave uneven segments
        small, tau_max = co.build(4, 32), 7.37
        pairs = strichartz_pairs(4)
        report = ev.strichartz_suite(small, pairs, tau_max)
        rng = np.random.default_rng(0)
        for i in range(10):
            f = co.random_smooth_pair(small, rng)
            phi0 = f - small.P_mat @ f
            denom = co.sobolev_norm(small, phi0)
            traj = ev.evolve(small, phi0, tau_max, 0.01, "linear-perturbed")
            half = len(traj.taus) // 2 + 1
            for j, (p, q) in enumerate(pairs):
                g = ev.lq_norm(small, traj.states[:, : small.N], q)
                for key, n in (("ratios", len(g)), ("ratios_half", half)):
                    norm, _ = ev._strichartz_with_tail(g[:n], traj.taus[:n], p)
                    assert report[key][i, j] == pytest.approx(
                        norm / denom, rel=1e-12, abs=0.0)

    def test_stack_holds_one_segment(self):
        # ten whole trajectories at once would hold 18 MB of states
        fresh = co.build(4, 96)
        tracemalloc.start()
        try:
            ev.strichartz_suite(fresh, strichartz_pairs(4), 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    @pytest.mark.parametrize("tau_max, match", [
        (1.005, "multiple of dtau"), (60.0, "<= 50")])
    def test_horizon_checked_as_in_evolve(self, tau_max, match):
        # each segment is a legal evolve, so the suite checks the whole
        # horizon by evolve's rule before it runs one
        with pytest.raises(DomainError, match=match):
            ev.strichartz_suite(co.build(4, 32), [(2.0, 8.0)], tau_max)

    def test_makes_no_mode_coefficient_products(self, monkeypatch):
        # the ratios read the first components of the states only
        calls, mode_coefficient = [], co.SpectralDiscretization.mode_coefficient
        monkeypatch.setattr(
            co.SpectralDiscretization, "mode_coefficient",
            lambda disc, u: calls.append(len(u)) or mode_coefficient(disc, u))
        ev.strichartz_suite(co.build(4, 32), strichartz_pairs(4), 12.0)
        assert calls == []


class TestDump:
    def test_files_written(self, disc, tmp_path):
        traj = ev.evolve(disc, disc.g_disc, 0.1, 0.01, "linear-perturbed")
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        ev.dump_trajectory(traj, csv_path, json_path, stride=2)
        header = csv_path.read_text().splitlines()[0]
        assert header == "tau,rho_index,phi1,phi2"
        import json
        side = json.loads(json_path.read_text())
        assert "mode_coefficients" in side
        # the finite q of the pairs of d = 4, computed from the states
        assert list(side["lq_norms"]) == ["8.0", "4.0"]
        for q in (8.0, 4.0):
            ref = ev.lq_norm(disc, traj.states[:, : disc.N], q)[::2]
            assert side["lq_norms"][str(q)] == [float(x) for x in ref]


def _lawson_rk4(eh, d, dt, u):
    """Textbook Lawson RK4: full-width stages (0, N(v1)), e^{dt L/2} only."""
    n = len(u) // 2

    def f(v):
        out = np.zeros_like(v)
        out[n:] = nonlinearity(d, v[:n])
        return out

    k1 = f(u)
    k2 = f(eh @ u + 0.5 * dt * (eh @ k1))
    k3 = f(eh @ u + 0.5 * dt * k2)
    k4 = f(eh @ (eh @ u) + dt * (eh @ k3))
    return eh @ (eh @ u) + dt / 6.0 * (
        eh @ (eh @ k1) + 2.0 * (eh @ k2) + 2.0 * (eh @ k3) + k4)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_lawson_step_matches_textbook(d):
    # p = 4/(d-2) = 4, 2, 4/3, 1
    disc = co.build(d, 48)
    prop = ev._propagator(disc, 0.01, "nonlinear")
    v = bl.bump_perturbation(delta=0.1, amplitude=0.05)
    block = np.array([bl.initial_data(disc, T, v)
                      for T in np.linspace(0.9, 1.1, 5)]).T.copy()
    for u in (block[:, 1].copy(), block):
        ref = _lawson_rk4(prop.E_half, d, 0.01, u)
        assert np.max(np.abs(prop.step(u) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_discretization_dies_with_its_last_reference():
    # the propagator cached on the discretization holds no reference back,
    # so reference counting frees both without the cycle collector
    gc.disable()
    try:
        disc = co.build(4, 32)
        u = bl.initial_data(disc, 1.01, bl.zero_perturbation())
        ev.evolve(disc, u, 0.02, 0.01, "nonlinear")
        ref = weakref.ref(disc)
        del disc
        assert ref() is None
    finally:
        gc.enable()


class TestStack:
    """The fit grid of the evolution benchmark (d 4, N 96, seed 1)."""

    @pytest.fixture(scope="class")
    def grid_data(self, disc):
        v = bl.bump_perturbation(delta=0.1, amplitude=0.028359106102810033)
        return np.array([bl.initial_data(disc, T, v)
                         for T in np.linspace(0.9, 1.1, 5)])

    def test_members_match_single_runs(self, disc, grid_data):
        stack = ev.evolve(disc, grid_data, 12.0, 0.01, "nonlinear")
        singles = [ev.evolve(disc, u, 12.0, 0.01, "nonlinear")
                   for u in grid_data]
        assert len(stack) == 5
        assert [m.blowup_tau for m in stack] == [s.blowup_tau for s in singles]
        # T = 1.0, 1.05 and 1.1 blow up; the block goes on to tau_max
        assert [s.blowup_tau is None for s in singles] == [True, True] + [False] * 3
        assert stack.blowup_tau is None and stack.taus[-1] == 12.0
        for m, s in zip(stack, singles):
            assert len(m.taus) == len(s.taus)
            if s.blowup_tau is None:
                assert np.max(np.abs(m.mode_coeffs - s.mode_coeffs)) <= 1e-11

    def test_stack_of_one_is_the_single_run(self, disc, grid_data):
        (one,) = ev.evolve(disc, grid_data[1:2], 12.0, 0.01, "nonlinear")
        single = ev.evolve(disc, grid_data[1], 12.0, 0.01, "nonlinear")
        assert np.array_equal(one.states, single.states)
        assert np.array_equal(one.mode_coeffs, single.mode_coeffs)
        assert one.alias_indicator == single.alias_indicator

    def test_stops_when_every_member_blew_up(self, disc, grid_data):
        stack = ev.evolve(disc, grid_data[3:], 12.0, 0.01, "nonlinear")
        taus = [m.blowup_tau for m in stack]
        assert None not in taus
        assert stack.blowup_tau == max(taus) == stack.taus[-1] < 12.0
        assert len(stack.taus) == len(stack[0].taus)
        # each member leaves where its own run does, with the same states;
        # a block product rounds unlike a vector product, and the blowup
        # amplifies that to ~1e-10 of the sup norm
        for m, u in zip(stack, grid_data[3:]):
            single = ev.evolve(disc, u, 12.0, 0.01, "nonlinear")
            assert m.blowup_tau == single.blowup_tau
            assert m.states.shape == single.states.shape
            diff = np.abs(m.states - single.states).max(axis=1)
            assert np.all(diff <= 1e-8 * np.abs(single.states).max(axis=1))

    def test_nan_member_leaves_at_once(self, disc, grid_data):
        block = grid_data[:2].copy()
        block[1, 0] = np.nan
        first, broken = ev.evolve(disc, block, 1.0, 0.01, "nonlinear")
        assert broken.blowup_tau == 0.01 and len(broken.taus) == 2
        assert first.blowup_tau is None and first.taus[-1] == 1.0


def test_energy_norms_on_first_read(disc):
    # and the other diagnostics: a trajectory stores its states, and
    # each diagnostic is computed from them when first read
    rng = np.random.default_rng(2)
    derived = {"energy_norms", "mode_coeffs", "alias_indicator"}
    linear, nonlinear = (
        ev.evolve(disc, scale * co.random_smooth_pair(disc, rng), 0.1, 0.01,
                  mode)
        for scale, mode in ((1.0, "linear-perturbed"), (0.01, "nonlinear")))
    for traj in (linear, nonlinear):
        assert not derived & set(vars(traj))
        assert np.array_equal(traj.energy_norms,
                              co.energy_norm(disc, traj.states))
        assert np.array_equal(traj.mode_coeffs,
                              disc.mode_coefficient(traj.states))
    assert linear.alias_indicator == 0.0
    top = [_top_cheb_reference(disc, u1) for u1 in nonlinear.states[:, :96]]
    assert nonlinear.alias_indicator == pytest.approx(max(top), rel=1e-12)


def _taylor_expm(a):
    """Long-double reference: scale to 1-norm <= 1/2, sum 30 Taylor terms,
    square back (the fewest squarings, which add the most round-off)."""
    x = np.asarray(a, dtype=np.longdouble)
    j = max(math.ceil(math.log2(2.0 * np.abs(x).sum(axis=0).max())), 0)
    x = x / np.longdouble(2) ** j
    term = np.eye(len(x), dtype=np.longdouble)
    out = term.copy()
    for k in range(1, 31):
        term = term @ x / k
        out += term
    for _ in range(j):
        out = out @ out
    return out


@pytest.mark.parametrize("N, tol", [(32, 1e-13), (96, 2e-12)])
def test_expm_matches_taylor_reference(N, tol):
    a = 0.01 * co.build(4, N).L_mat
    ref = _taylor_expm(a)
    err = np.abs(ev.expm(a) - ref).max() / np.abs(ref).max()
    assert err <= tol


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("N", [32, 64, 96, 136])
def test_expm_matches_scipy(d, N):
    disc = co.build(d, N)
    for lmat in (disc.L_mat, disc.L0_mat):
        for dtau in (0.0025, 0.005, 0.01, 0.02):
            ref = scipy.linalg.expm(dtau * lmat)
            err = np.abs(ev.expm(dtau * lmat) - ref).max() / np.abs(ref).max()
            assert err <= 2e-11, (lmat is disc.L_mat, dtau, err)


def test_expm_keeps_the_gauge_eigenpair(disc):
    # g and y are L's right and left eigenvectors at 1; r_13 solved from
    # the left misses e^dtau g by 1e-9 and e^dtau y by 7e-11 here
    g, y = disc.g_disc, disc.adjoint_functional
    for dtau in (0.005, 0.01):
        e = ev.expm(dtau * disc.L_mat)
        assert np.abs(e @ g - math.exp(dtau) * g).max() <= 2e-10 * np.abs(g).max()
        assert np.abs(y @ e - math.exp(dtau) * y).max() <= 5e-12 * np.abs(y).max()


def test_expm_small_and_nilpotent():
    # A^6, A^8, A^10 and (|A|)^27 vanish: no scaling to choose
    assert np.array_equal(ev.expm(np.zeros((3, 3))), np.eye(3))
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.abs(ev.expm(shift) - (np.eye(2) + shift)).max() <= 1e-15
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation by one radian
    rot = np.array([[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]])
    assert np.abs(ev.expm(a) - rot).max() <= 1e-15
    z = np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]])
    assert np.abs(ev.expm(z) - scipy.linalg.expm(z)).max() <= 1e-14
