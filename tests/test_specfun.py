import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_forms as cf
from conewave import specfun as sf
from conewave.errors import DomainError, ParamError, PoleError

SQRT_PI = 1.7724538509055160273

# mpmath.hyp2f1(0.3+2j, 1.1-1j, 2.5, 0.7) at 40 digits
HYP_COMPLEX_ORACLE = 1.6380251984494908084 + 1.4263912737263217032j

# mpmath besselj/bessely at 3+4i, 30 digits
BESSEL_ORACLE = {
    (1.0, "J"): 3.65411028141426442 - 8.40310425658308719j,
    (1.0, "Y"): 8.40460844617678193 + 3.6473524391213585j,
    (2.0, "J"): 7.00013689913074111 + 1.4123775881105296j,
    (3.0, "Y"): -4.608389975449762 + 0.620312297823657925j,
}
# mpmath.besselj(1.5, 0.5+2j) and bessely(3.5, 20+5j)
BESSEL_HALF_ORACLE = {
    (1.5, 0.5 + 2.0j, "J"): -0.264710422682834768 + 1.09815903590405986j,
    (3.5, 20.0 + 5.0j, "Y"): 12.2249200130865244 + 0.144988100421584481j,
}


class TestGamma:
    def test_anchors(self):
        assert sf.gamma_c(1.0) == pytest.approx(1.0, rel=1e-14)
        assert abs(sf.gamma_c(0.5) - SQRT_PI) <= 1e-13
        assert sf.gamma_c(4.0) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            sf.gamma_c(z)
        assert sf.rgamma(z) == 0.0

    def test_arrays(self):
        # arrays in, arrays out: the poles give exact zeros of rgamma and
        # a PoleError of gamma_c for the whole array
        z = np.array([0.5, -1.0, 3.0 + 2.0j, -2.5 - 7.0j])
        rg = sf.rgamma(z)
        assert rg[1] == 0.0
        for zz, r in zip(z, rg):
            assert abs(r - sf.rgamma(zz)) <= 1e-15 * abs(r)
        with pytest.raises(PoleError):
            sf.gamma_c(z)
        g = sf.gamma_c(z[[0, 2, 3]])
        assert abs(g[0] - SQRT_PI) <= 1e-13
        assert abs(g[1] * rg[2] - 1.0) <= 1e-14

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(400):
            z = complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
            if z.real <= 0.5 and abs(z.imag) < 1e-2:
                continue  # pole neighborhood
            ref = scipy.special.gamma(z)
            worst = max(worst, abs(sf.gamma_c(z) - ref) / abs(ref))
        assert worst <= 1e-12

    @given(st.complex_numbers(min_magnitude=0.3, max_magnitude=40,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_functional_equation(self, z):
        if abs(z.imag) < 1e-3 and z.real < 1:
            return
        lhs = sf.gamma_c(z + 1.0)
        rhs = z * sf.gamma_c(z)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


class TestHyp2f1:
    def test_b_zero_is_one(self):
        assert cf.hyp2f1(3.7 + 2.0j, 0.0, 1.5, 0.83) == 1.0
        assert cf.hyp2f1(-2.5, 0.0, 0.7, 0.2) == 1.0

    def test_log_anchor(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        val = cf.hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert abs(val - 2.0 * math.log(2.0)) <= 1e-12

    def test_complex_continuation_oracle(self):
        val = cf.hyp2f1(0.3 + 2.0j, 1.1 - 1.0j, 2.5, 0.7)
        assert abs(val - HYP_COMPLEX_ORACLE) <= 1e-10 * abs(HYP_COMPLEX_ORACLE)

    def test_domain_and_params(self):
        with pytest.raises(DomainError):
            cf.hyp2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            cf.hyp2f1(1.0, 1.0, 2.0, -0.1)
        with pytest.raises(ParamError):
            cf.hyp2f1(1.0, 1.0, -3.0, 0.5)

    @given(
        st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=0.93),
    )
    @settings(max_examples=120, deadline=None)
    def test_symmetry(self, a, b, z):
        c = 2.3 + 0.4j
        va = cf.hyp2f1(a, b, c, z)
        vb = cf.hyp2f1(b, a, c, z)
        assert abs(va - vb) <= 1e-11 * (abs(va) + 1.0)

    def test_deriv_definitional(self):
        a, b, c, z = 1.0, 1.0, 2.0, 0.5
        lhs = cf.hyp2f1_deriv(a, b, c, z)
        rhs = (a * b / c) * cf.hyp2f1(a + 1, b + 1, c + 1, z)
        assert lhs == rhs
        assert cf.hyp2f1_deriv(2.0, 0.0, 1.5, 0.4) == 0.0

    def test_deriv_fd_anchor(self):
        h = 1e-6
        fd = (cf.hyp2f1(1, 1, 2, 0.3 + h) - cf.hyp2f1(1, 1, 2, 0.3 - h)) / (2 * h)
        assert abs(cf.hyp2f1_deriv(1, 1, 2, 0.3) - fd) <= 1e-7 * abs(fd)

    def test_deriv_fd_sweep(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            c = complex(rng.uniform(1, 4), rng.uniform(-1, 1))
            z = rng.uniform(0.05, 0.85)
            fd = (cf.hyp2f1(a, b, c, z + h) - cf.hyp2f1(a, b, c, z - h)) / (2 * h)
            dv = cf.hyp2f1_deriv(a, b, c, z)
            assert abs(dv - fd) <= 1e-6 * (abs(fd) + 1.0)

    def test_near_one_against_scipy(self):
        for z in (0.9, 0.99, 0.999, 0.9999):
            mine = cf.hyp2f1(0.7, 1.3, 2.2, z)
            ref = scipy.special.hyp2f1(0.7, 1.3, 2.2, z)
            assert abs(mine - ref) <= 1e-10 * abs(ref)


class TestBessel:
    # the Bessel model of the tests calls scipy.special on complex
    # arguments, so these checks do too
    def test_half_integer_anchor(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z
        val = scipy.special.jv(0.5, complex(2.0))
        ref = math.sqrt(2.0 / (math.pi * 2.0)) * math.sin(2.0)
        assert abs(val - ref) <= 1e-12
        assert abs(ref - 0.5130161365) <= 1e-9

    def test_small_z_limits(self):
        # J_nu(z)/z^nu -> 1/(2^nu Gamma(nu+1)) and Y_1(z) z -> -2/pi
        for nu in (0.5, 1.0, 2.5, 3.5):
            z = 1e-4
            lim = scipy.special.jv(nu, complex(z)) / z**nu
            ref = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
            assert abs(lim - ref) <= 1e-7 * ref
        z = 1e-5
        assert abs(scipy.special.yv(1.0, complex(z)) * z
                   - (-2.0 / math.pi)) <= 1e-8

    def test_frozen_complex_oracles(self):
        z = 3.0 + 4.0j
        bessel = {"J": scipy.special.jv, "Y": scipy.special.yv}
        for (nu, kind), ref in BESSEL_ORACLE.items():
            val = bessel[kind](nu, z)
            assert abs(val - ref) <= 1e-9 * abs(ref)
        for (nu, z, kind), ref in BESSEL_HALF_ORACLE.items():
            val = bessel[kind](nu, z)
            assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_ode_residual(self):
        # w'' + w'/z + (1 - nu^2/z^2) w = 0 with w'' by finite differences
        h = 1e-5
        for nu in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
            for r in (0.1, 1.0, 7.0, 20.0, 50.0):
                z = r * cmath.exp(0.4j)
                w = scipy.special.jv(nu, z)
                wp = scipy.special.jvp(nu, z)
                wpp = (scipy.special.jvp(nu, z + h)
                       - scipy.special.jvp(nu, z - h)) / (2 * h)
                res = wpp + wp / z + (1.0 - nu * nu / (z * z)) * w
                scale = abs(wpp) + abs(wp / z) + abs(w)
                assert abs(res) <= 1e-7 * scale

    def test_wronskian(self):
        for z in (0.3 + 0.2j, 2.0, 5.0 + 1.0j, 40.0 + 3.0j, -9.0 + 2.0j):
            z = complex(z)
            for nu in (0.5, 1.0, 2.0, 2.5, 3.5):
                w = (scipy.special.jv(nu, z) * scipy.special.yvp(nu, z)
                     - scipy.special.jvp(nu, z) * scipy.special.yv(nu, z))
                ref = 2.0 / (math.pi * z)
                assert abs(w - ref) <= 1e-8 * abs(ref)

    def test_cli_import_leaves_scipy_special_unloaded(self):
        # no module of the library imports scipy.special
        code = "import sys, conewave.cli; print('scipy.special' in sys.modules)"
        assert _run_python(code) == "False"

    def test_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        # scipy.linalg's import (numpy.f2py, numpy.testing, numpy.ma) is
        # gone from the commands' set-up, and no command loads it later
        cfg = tmp_path / "small.cfg"
        cfg.write_text("N = 32\ntau_max = 4.0\nomega_scan = 10\n"
                       "eps_contour = 0.4\nomega = 20\ndomega = 0.2\n")
        code = (
            "import json, sys, conewave.cli\n"
            "codes = [conewave.cli.main([c, '--config', sys.argv[1],"
            " '--out', sys.argv[2]]) for c in ('spectrum', 'green-check',"
            " 'laplace-compare', 'fit-blowup', 'strichartz')]\n"
            "print(json.dumps([codes, [m for m in ('scipy.linalg',"
            " 'numpy.f2py') if m in sys.modules]]))")
        codes, loaded = json.loads(
            _run_python(code, str(cfg), str(tmp_path / "out")))
        # 66: a gate not met at these short settings, after a full run
        assert set(codes) <= {0, 66}, codes
        assert loaded == []


def _run_python(code, *args):
    """Standard output of a fresh interpreter running code on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def c3_zero_candidates(d: int, variant: str, re_min: float, re_max: float,
                       im_max: float):
    """Analytic zero set of c3 in the window, from the Gamma pole lattice.

    Zeros of c3 occur where a or b is a nonpositive integer and the
    numerator is regular.  All candidates are real.
    """
    out = []
    for n in range(0, 200):
        if variant == "perturbed":
            cands = (1.0 - 2.0 * n, float(-d - 2 * n))
        else:
            cands = ((2.0 - d) / 2.0 - 2.0 * n, -d / 2.0 - 2.0 * n)
        for lam in cands:
            if re_min <= lam <= re_max and abs(lam) <= max(im_max, abs(re_max)) + 1:
                # discard if the numerator Gamma(lam + 1/2) has a pole there
                if not sf._near_nonpositive_int(complex(lam + 0.5), 1e-9):
                    out.append(complex(lam))
    return sorted(set(out), key=lambda z: (-z.real, z.imag))


class TestConnectionCoefficient:
    def test_perturbed_gauge_zero(self):
        assert sf.c3_connection(4, 1.0, "perturbed") == 0.0

    def test_free_anchor(self):
        val = sf.c3_connection(4, 0.0, "free")
        assert abs(val - 1.0) <= 1e-13

    @pytest.mark.parametrize("omega", [0.5, 3.0, 20.0])
    def test_free_axis_nonvanishing(self, omega):
        assert abs(sf.c3_connection(5, 1j * omega, "free")) > 1e-3

    def test_numerator_pole(self):
        with pytest.raises(PoleError):
            sf.c3_connection(4, -0.5, "free")

    def test_array_is_elementwise(self):
        # one call takes a whole contour; a scalar gives a complex, and an
        # array the same values, with the exact zero at lam = 1 and the
        # numerator pole raising
        lams = np.array([[1.0, 0.0, 0.3 + 2.0j], [1.7 - 40.0j, 0.1 + 50.5j, 2.0]])
        for variant in ("free", "perturbed"):
            vals = sf.c3_connection(4, lams, variant)
            assert vals.shape == lams.shape
            for lam, v in zip(lams.ravel(), vals.ravel()):
                ref = sf.c3_connection(4, lam, variant)
                assert isinstance(ref, complex)
                assert abs(v - ref) <= 1e-15 * abs(ref), (variant, lam)
        assert sf.c3_connection(4, lams, "perturbed")[0, 0] == 0.0
        with pytest.raises(PoleError):
            sf.c3_connection(4, [0.3, -0.5], "free")

    def test_zero_candidates(self):
        zs = c3_zero_candidates(4, "perturbed", -0.5, 2.0, 50.0)
        assert zs == [1.0 + 0.0j]
        assert c3_zero_candidates(4, "free", 0.0, 2.0, 50.0) == []
        # the full right half disc |lam| <= 50 holds no further zeros
        for d in (3, 4, 5, 6):
            assert c3_zero_candidates(d, "perturbed", 0.0, 50.0, 50.0) \
                == [1.0 + 0.0j]
            assert c3_zero_candidates(d, "free", 0.0, 50.0, 50.0) == []
        # next perturbed candidates sit at -1, -3, -d, ...
        zs = c3_zero_candidates(4, "perturbed", -5.0, 2.0, 50.0)
        assert {z.real for z in zs} == {1.0, -1.0, -3.0, -5.0, -4.0}

    def test_params_match_ode_coefficients(self):
        # (a, b, c) must reproduce the hypergeometric form of the spectral ODE
        for variant in ("free", "perturbed"):
            for lam in (0.3 + 1.2j, 2.0):
                for d in (3, 4, 6):
                    a, b, c = sf.hypergeo_params(d, lam, variant)
                    assert abs(a + b + 1.0 - (lam + (d + 1) / 2.0)) <= 1e-13
                    from conewave.radialode import zero_order_coeff
                    assert abs(a * b - zero_order_coeff(d, lam, variant) / 4.0) \
                        <= 1e-12 * (abs(a * b) + 1.0)
