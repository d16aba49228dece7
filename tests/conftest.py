import numpy as np
import pytest

from conewave import blowup as bl


@pytest.fixture
def never_linear(monkeypatch):
    """Stub the fit's evolutions with a gauge-mode coefficient of +/- 0.5.

    The sign follows the first node of the initial data, so it changes
    inside the bracket, but |c| never enters the secant's linear window.
    """
    def evolve(disc, phi0, tau_max, dtau, mode):
        n = int(round(tau_max / dtau)) + 1
        c = 0.5 if phi0[0] > 0.01 else -0.5
        return bl.EvolutionTrajectory(
            disc=disc, dtau=dtau, mode=mode, taus=np.arange(n) * dtau,
            states=np.zeros((n, 2 * disc.N)), mode_coeffs=np.full(n, c),
            energy_norms=np.zeros(n), lq_norms={}, alias_indicator=0.0)

    monkeypatch.setattr(bl, "evolve", evolve)
