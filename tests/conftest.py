import numpy as np
import pytest

from conewave import blowup as bl
from conewave import evolve as ev


@pytest.fixture
def never_linear(monkeypatch):
    """Stub the fit's evolutions with a gauge-mode coefficient of +/- 0.5.

    Every state is +/- 0.5 times the gauge mode g.  The sign follows the
    first node of the initial data, so it changes inside the bracket, but
    |c| never enters the secant's linear window.
    """
    def evolve(disc, phi0, tau_max, dtau, mode):
        n = int(round(tau_max / dtau)) + 1
        taus = np.arange(n) * dtau
        if np.ndim(phi0) == 2:
            return ev.TrajectoryStack(
                evolve(disc, u, tau_max, dtau, mode) for u in phi0)
        c = 0.5 if phi0[0] > 0.01 else -0.5
        return bl.EvolutionTrajectory(
            disc=disc, dtau=dtau, mode=mode, taus=taus,
            states=np.tile(c * disc.g_disc, (n, 1)))

    monkeypatch.setattr(bl, "evolve", evolve)


def _record_evolutions(mp):
    """Log each call of ``blowup.evolve`` as (N, dtau, members, steps)."""
    log = []
    evolve = bl.evolve

    def logged(disc, phi0, tau_max, dtau, mode):
        out = evolve(disc, phi0, tau_max, dtau, mode)
        members = 1 if np.ndim(phi0) == 1 else len(phi0)
        log.append((disc.N, dtau, members, len(out.taus) - 1))
        return out

    mp.setattr(bl, "evolve", logged)
    return log


@pytest.fixture(scope="session")
def record_evolutions():
    """``_record_evolutions``, for fixtures that hold their own monkeypatch."""
    return _record_evolutions


@pytest.fixture
def evolutions(monkeypatch):
    """The (N, dtau, members, steps) of each call of ``blowup.evolve``."""
    return _record_evolutions(monkeypatch)


def _fit_stages(log, n_evolutions, N, dtau=0.01, tau_max=12.0):
    """Check the fit's evolutions, the head of ``log``, stage by stage.

    Coarse: one stack of 5 on (max(19, round(2N/3)), dtau_c), then single
    secant runs, where dtau_c = tau_max / max(1, round(tau_max / (4 dtau)))
    is the divisor of tau_max nearest 4 dtau.  Fine: one to three single
    runs on (N, dtau), the warm start, its Newton step and at most one
    secant run, and at most 3 tau_max / dtau Lawson steps in all.
    ``n_evolutions`` counts the members of both.  Returns the (coarse,
    fine) entries of ``log``.
    """
    n_steps = round(tau_max / dtau)
    coarse = (max(19, round(2 * N / 3)),
              tau_max / max(1, round(tau_max / (4 * dtau))))
    members = np.cumsum([entry[2] for entry in log])
    end = int(np.searchsorted(members, n_evolutions)) + 1
    assert members[end - 1] == n_evolutions
    calls = [entry[:3] for entry in log[:end]]
    start = calls.index((N, dtau, 1), 1)
    assert calls[:start] == [coarse + (5,)] + [coarse + (1,)] * (start - 1)
    assert calls[start:] == [(N, dtau, 1)] * (end - start)
    assert end - start <= 3
    assert sum(entry[3] for entry in log[start:end]) <= 3 * n_steps
    return log[:start], log[start:end]


@pytest.fixture(scope="session")
def fit_stages():
    return _fit_stages
