import numpy as np
import pytest

from conewave import blowup as bl
from conewave import evolve as ev


@pytest.fixture
def never_linear(monkeypatch):
    """Stub the fit's evolutions with a gauge-mode coefficient of +/- 0.5.

    The sign follows the first node of the initial data, so it changes
    inside the bracket, but |c| never enters the secant's linear window.
    """
    def evolve(disc, phi0, tau_max, dtau, mode):
        n = int(round(tau_max / dtau)) + 1
        taus = np.arange(n) * dtau
        if np.ndim(phi0) == 2:
            return ev.TrajectoryStack(
                [evolve(disc, u, tau_max, dtau, mode) for u in phi0], taus)
        c = 0.5 if phi0[0] > 0.01 else -0.5
        return bl.EvolutionTrajectory(
            disc=disc, dtau=dtau, mode=mode, taus=taus,
            states=np.zeros((n, 2 * disc.N)), mode_coeffs=np.full(n, c),
            alias_indicator=0.0)

    monkeypatch.setattr(bl, "evolve", evolve)
