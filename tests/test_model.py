import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_forms as cf
from conewave import model
from conewave.errors import DomainError


class TestBlowupFamily:
    def test_amplitude_values(self):
        assert model.c_d(6) == pytest.approx(6.0, abs=1e-14)
        assert model.c_d(4) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert model.c_d(3) == pytest.approx(0.75**0.25, abs=1e-15)

    def test_profile_values(self):
        assert cf.ode_blowup(4, 1.0, 0.0) == pytest.approx(math.sqrt(2.0))
        assert cf.ode_blowup(4, 1.0, 1.0 - 1.0 / math.e) == pytest.approx(
            math.sqrt(2.0) * math.e)
        assert cf.ode_blowup(6, 2.0, 1.0) == pytest.approx(6.0)

    def test_profile_domain(self):
        with pytest.raises(DomainError):
            cf.ode_blowup(4, 1.0, 1.0)
        with pytest.raises(DomainError):
            model.c_d(2)

    def test_lq_scaling_constancy(self):
        # ||u^T(t)||^2_{L^{2d/(d-3)}(B_{T-t})} (T-t) is t-independent
        d, T = 4, 1.3
        q = 2.0 * d / (d - 3.0)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        vals = []
        for t in (0.0, 0.5, 1.0, 1.29):
            radius = T - t
            r = 0.5 * radius * (nodes + 1.0)
            w = 0.5 * radius * weights
            u = cf.ode_blowup(d, T, t)
            nrm_sq = (model.sphere_area(d)
                      * np.sum(w * abs(u) ** q * r ** (d - 1.0))) ** (2.0 / q)
            vals.append(nrm_sq * radius)
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) <= 1e-10 * vals[0]


def _psi_pair_from_u(d, T, u, u_t, tau, rho):
    """Both similarity components from (u, d_t u).

    psi_1 = (T e^{-tau})^{(d-2)/2} u(t, r) and the chain rule collapses
    psi_2 = d_tau psi + rho d_rho psi + (d-2)/2 psi to
    psi_2 = (T e^{-tau})^{d/2} d_t u(t, r).
    """
    model.check_dimension(d)
    tau = np.asarray(tau, dtype=float)
    t, r = cf.from_similarity(T, tau, rho)
    mu = T * np.exp(-tau)
    return mu ** ((d - 2) / 2.0) * u(t, r), mu ** (d / 2.0) * u_t(t, r)


class TestSimilarityCoordinates:
    def test_anchors(self):
        tau, rho = cf.to_similarity(1.0, 0.0, 0.5)
        assert tau == 0.0 and rho == 0.5
        tau, rho = cf.to_similarity(1.0, 1.0 - math.exp(-2.0), 0.0)
        assert tau == pytest.approx(2.0, abs=1e-12) and rho == 0.0

    @given(st.floats(0.2, 3.0), st.floats(0.0, 0.999), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, T, tfrac, rfrac):
        t = tfrac * T
        r = rfrac * (T - t)
        tau, rho = cf.to_similarity(T, t, r)
        t2, r2 = cf.from_similarity(T, tau, rho)
        assert abs(t2 - t) <= 1e-14 * max(1.0, T)
        assert abs(r2 - r) <= 1e-14 * max(1.0, T)

    def test_outside_lightcone(self):
        with pytest.raises(DomainError):
            cf.to_similarity(1.0, 0.5, 0.6)

    def test_blowup_becomes_constant(self):
        d, T = 5, 0.7
        cd = model.c_d(d)
        u = lambda t, r: cf.ode_blowup(d, T, t)
        for tau in (0.0, 1.0, 7.5):
            for rho in (0.0, 0.4, 1.0):
                psi = cf.psi_from_u(d, T, u, tau, rho)
                assert abs(psi - cd) <= 1e-12 * cd

    def test_blowup_pair_components(self):
        d, T = 4, 1.2
        cd = model.c_d(d)
        u = lambda t, r: cf.ode_blowup(d, T, t)
        u_t = lambda t, r: (d - 2) / 2.0 * model.c_d(d) * (T - t) ** (-d / 2.0)
        p1, p2 = _psi_pair_from_u(d, T, u, u_t, 1.3, 0.6)
        assert abs(p1 - cd) <= 1e-12
        assert abs(p2 - (d - 2) / 2.0 * cd) <= 1e-12

    def test_rescaling_consistency(self):
        # psi computed for (T, u) and for the rescaled pair agree:
        # u_s(t, r) = s^{(2-d)/2} u(t/s, r/s) has blowup time s T
        d, T, s = 4, 0.9, 1.7
        u = lambda t, r: np.cos(r) / (T - t)
        u_s = lambda t, r: s ** ((2.0 - d) / 2.0) * u(t / s, r / s)
        tau, rho = 0.8, 0.3
        a = cf.psi_from_u(d, T, u, tau, rho)
        b = cf.psi_from_u(d, s * T, u_s, tau, rho)
        assert abs(a - b) <= 1e-12 * abs(a)


def _nonlinearity_pair(d, pair):
    """Vector form (0, N(u_1)) acting on a stacked pair (u_1, u_2)."""
    u1, u2 = pair
    return np.zeros_like(np.asarray(u1, dtype=float)), model.nonlinearity(d, u1)


class TestNonlinearity:
    def test_zero(self):
        assert model.nonlinearity(4, 0.0) == 0.0

    def test_d4_closed_form(self):
        x = np.linspace(-1.0, 1.0, 41)
        expect = 3.0 * math.sqrt(2.0) * x**2 + x**3
        assert np.max(np.abs(model.nonlinearity(4, x) - expect)) <= 1e-12
        assert model.nonlinearity(4, 1.0) == pytest.approx(
            3.0 * math.sqrt(2.0) + 1.0, abs=1e-12)

    def test_derivative_vanishes_at_zero(self):
        h = 1e-7
        for d in (3, 4, 5, 6):
            fd = (model.nonlinearity(d, h) - model.nonlinearity(d, -h)) / (2 * h)
            assert abs(fd) <= 1e-7

    def test_vector_form(self):
        n1, n2 = _nonlinearity_pair(4, (np.array([0.2, -0.1]),
                                        np.array([5.0, 5.0])))
        assert np.all(n1 == 0.0)
        assert n2[0] == model.nonlinearity(4, 0.2)

    def test_dimension_gate(self):
        with pytest.raises(DomainError):
            model.nonlinearity(7, 0.1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_polynomial_form_has_no_cancellation(self, d):
        # the power form was off by 1.3e-2 relative at x = 1e-7 (d 4)
        mpmath = pytest.importorskip("mpmath")
        mag = np.geomspace(1e-9, 0.5, 101)
        x = np.concatenate([mag, -mag])
        got = model.nonlinearity(d, x)
        with mpmath.workdps(50):
            c = (mpmath.mpf(d * (d - 2)) / 4) ** (mpmath.mpf(d - 2) / 4)
            p = mpmath.mpf(4) / (d - 2)
            beta = mpmath.mpf(2 * d + d * d) / 4
            for xi, ni in zip(x, got):
                y = c + mpmath.mpf(xi)
                exact = abs(y) ** p * y - c ** (p + 1) - beta * mpmath.mpf(xi)
                assert abs(ni - exact) <= 1e-14 * abs(exact), xi


def _strichartz_x_pairs(d):
    """The two exponent pairs of the Strichartz space norm."""
    model.check_dimension(d, nonlinear=True)
    return (
        (2.0, 2.0 * d / (d - 3.0) if d > 3 else math.inf),
        ((d + 2.0) / (d - 2.0), (2.0 * d + 4.0) / (d - 2.0)),
    )


class TestStrichartzPairs:
    @pytest.mark.parametrize("d,p,q,ok", [
        (4, 2.0, 8.0, True),
        (4, math.inf, 4.0, True),
        (4, 2.0, 6.0, False),
        (4, 1.5, 8.0, False),
        (5, 2.0, 5.0, True),
        (3, 2.0, 1e9, False),
    ])
    def test_examples(self, d, p, q, ok):
        assert cf.admissible(d, p, q) is ok

    @given(st.integers(4, 9), st.floats(2.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_relation_consistency(self, d, p):
        # q solved from the scaling relation is admissible iff in range
        q = d / (d / 2.0 - 1.0 - 1.0 / p)
        lo, hi = model.q_bounds(d)
        if lo <= q <= hi:
            assert cf.admissible(d, p, q)

    def test_x_space_pairs(self):
        pairs = _strichartz_x_pairs(4)
        assert pairs[0] == (2.0, 8.0)
        assert pairs[1] == (3.0, 6.0)


def _liouville_green_potential_from_derivatives(rho):
    """Q_phi from its defining combination -3/4 (phi''/phi')^2 + 1/2 phi'''/phi'."""
    rho = np.asarray(rho, dtype=float)
    om = 1.0 - rho**2
    phi1 = 1.0 / om
    phi2 = 2.0 * rho / om**2
    phi3 = 2.0 / om**2 + 8.0 * rho**2 / om**3
    return -0.75 * (phi2 / phi1) ** 2 + 0.5 * (phi3 / phi1)


class TestLiouvilleGreen:
    def test_anchors(self):
        assert cf.varphi(0.0) == 0.0
        assert cf.varphi(math.tanh(1.0)) == pytest.approx(1.0, abs=1e-14)
        assert cf.liouville_green_potential(0.5) == pytest.approx(
            1.0 / 0.75**2, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.varphi(1.0)
        with pytest.raises(DomainError):
            cf.liouville_green_potential(np.array([0.2, 1.0]))

    @given(st.floats(0.0, 0.9999))
    @settings(max_examples=200, deadline=None)
    def test_derivative_identity(self, rho):
        # phi'(rho) (1 - rho^2) = 1 checked through finite differences
        h = 1e-7 * (1.0 - rho) + 1e-12
        phip = (cf.varphi(min(rho + h, 0.99999)) - cf.varphi(max(rho - h, 0.0))) \
            / (min(rho + h, 0.99999) - max(rho - h, 0.0))
        assert phip * (1.0 - rho**2) == pytest.approx(1.0, abs=1e-5)

    def test_potential_from_derivatives(self):
        rho = np.linspace(0.0, 0.95, 40)
        a = cf.liouville_green_potential(rho)
        b = _liouville_green_potential_from_derivatives(rho)
        assert np.max(np.abs(a - b) / a) <= 1e-12

    def test_inverse(self):
        x = np.linspace(0.0, 5.0, 21)
        assert np.max(np.abs(cf.varphi(np.tanh(x)) - x)) <= 1e-12
