"""Closed forms of the paper that the tests use as oracles.

The fundamental system of the free equation at lam = 1 is elementary; it
checks the integrated solutions, their Wronskian and the continuation of
the origin-regular solution toward rho = 1.
"""

import numpy as np

from conewave.model import check_dimension


class ExplicitLambda1:
    """Fundamental system of the free equation at lam=1, in closed form.

    u0 = ((1+s)^{d/2-1} s)^{-1}, u1 = ((1-s)^{d/2-1}-(1+s)^{d/2-1})/(rho^{d-2} s)
    with s = sqrt(1-rho^2); their Wronskian is (d-2) rho^{1-d} (1-rho^2)^{-3/2}.
    h1 is the second solution of the perturbed equation at lam=1 used in the
    multiplicity argument, h1(rho) = int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt.
    """

    def __init__(self, d: int):
        self.d = check_dimension(d)

    def u0(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.sqrt(1.0 - rho**2)
        return 1.0 / ((1.0 + s) ** (self.d / 2.0 - 1.0) * s)

    def u0_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        return rho * (1.0 + d / 2.0 * s) / ((1.0 + s) ** (d / 2.0) * s**3)

    def u1(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        one_minus_s = rho**2 / (1.0 + s)   # 1 - s without cancellation
        return (one_minus_s ** (d / 2.0 - 1.0) - (1.0 + s) ** (d / 2.0 - 1.0)) / (
            rho ** (d - 2.0) * s
        )

    def u1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        d = self.d
        s = np.sqrt(1.0 - rho**2)
        one_minus_s = rho**2 / (1.0 + s)
        a = one_minus_s ** (d / 2.0 - 1.0)
        b = (1.0 + s) ** (d / 2.0 - 1.0)
        dab = (d / 2.0 - 1.0) * (rho / s) * (
            one_minus_s ** (d / 2.0 - 2.0) + (1.0 + s) ** (d / 2.0 - 2.0)
        )
        return dab / (rho ** (d - 2.0) * s) - (a - b) * (
            (d - 2.0) * s**2 - rho**2
        ) / (rho ** (d - 1.0) * s**3)

    def wronskian(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (self.d - 2.0) * rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5

    def h1(self, rho):
        """int_{1/2}^rho t^{1-d} (1-t^2)^{-3/2} dt by Gauss-Legendre."""
        rho = np.asarray(rho, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty(rho.shape)
        for i, r in enumerate(rho):
            a, b = 0.5, float(r)
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            f = t ** (1.0 - self.d) * (1.0 - t**2) ** -1.5
            out[i] = 0.5 * (b - a) * np.dot(weights, f)
        return out[0] if scalar else out

    def h1_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        return rho ** (1.0 - self.d) * (1.0 - rho**2) ** -1.5
