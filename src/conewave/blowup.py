"""Blowup-time fitting and the nonlinear stability experiment.

Perturbed Cauchy data (f, g) = u^1[0] + v enter the similarity frame
through the map

    U(T, v)(rho) = (T^{(d-2)/2} v1(T rho), T^{d/2} v2(T rho))
                   + (T^{(d-2)/2} c_d, (d-2)/2 T^{d/2} c_d)
                   - (c_d, (d-2)/2 c_d),

whose T-derivative at T=1, v=0 is (d-2)/4 c_d g: detuning the blowup
time excites exactly the gauge mode.  The fitted blowup time T* is the
zero of the late-time gauge-mode coefficient of the nonlinear evolution
started from U(T, v), found by bisection; on the stable manifold this
coefficient vanishes together with the Lyapunov-Perron correction
functional.
"""

import math
from dataclasses import dataclass

import numpy as np

from .collocation import SpectralDiscretization, energy_norm
from .errors import DomainError, NoBracketError
from .evolve import EvolutionTrajectory, evolve, lq_norm
from .model import c_d, check_dimension

BISECT_WIDTH = 1e-14
DETUNE = 0.02  # blowup-time detuning of the gauge-mode growth demo


@dataclass
class PerturbationData:
    """Radial perturbation profiles on [0, 1 + delta]."""

    v1: callable
    v2: callable
    delta: float
    amplitude: float

    def __post_init__(self):
        if not (0.0 < self.delta < 0.5):
            raise DomainError("delta must lie in (0, 1/2)")


def zero_perturbation(delta: float = 0.1) -> PerturbationData:
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return PerturbationData(v1=z, v2=z, delta=delta, amplitude=0.0)


def bump_perturbation(delta: float = 0.1,
                      amplitude: float = 0.05) -> PerturbationData:
    """amplitude * (1 - (r/R)^2)^4 in both slots, supported in r < R = 1 + delta/2."""
    radius = 1.0 + delta / 2.0

    def prof(r):
        r = np.asarray(r, dtype=float)
        return amplitude * np.clip(1.0 - (r / radius) ** 2, 0.0, None) ** 4

    return PerturbationData(v1=prof, v2=prof, delta=delta, amplitude=amplitude)


def initial_data(d: int, T: float, v: PerturbationData,
                 disc: SpectralDiscretization) -> np.ndarray:
    """Grid sample of U(T, v) (the similarity-frame perturbation at tau=0)."""
    check_dimension(d, nonlinear=True)
    if not (1.0 - v.delta <= T <= 1.0 + v.delta):
        raise DomainError(f"T={T} outside [1-delta, 1+delta]")
    rho = disc.nodes
    cd = c_d(d)
    u1 = T ** ((d - 2) / 2.0) * v.v1(T * rho) + cd * (T ** ((d - 2) / 2.0) - 1.0)
    u2 = T ** (d / 2.0) * v.v2(T * rho) \
        + (d - 2) / 2.0 * cd * (T ** (d / 2.0) - 1.0)
    return disc.stack(u1, u2)


@dataclass
class FitResult:
    T_star: float
    residual_mode: float
    trajectory: EvolutionTrajectory
    bracket: tuple
    monotone: bool
    n_evolutions: int


def _late_mode_coefficient(d, T, v, disc, tau_max, dtau):
    phi0 = initial_data(d, T, v, disc)
    traj = evolve(disc, phi0, tau_max, dtau, "nonlinear")
    return float(np.real(traj.mode_coeffs[-1])), traj


def fit_blowup_time(d: int, v: PerturbationData, tau_max: float = 12.0,
                    disc: SpectralDiscretization = None,
                    dtau: float = 0.01) -> FitResult:
    """Bisection in T so the evolved solution carries no late gauge mode.

    The late-time coefficient c(tau_max) = <Phi(tau_max), w>_E is strictly
    monotone in T across the bracket 1 +/- v.delta (checked on a 5-point
    grid); its zero is the fitted blowup time, accepted once |c| is below
    1e-8 ||Phi(0)||_E.
    """
    check_dimension(d, nonlinear=True)
    if disc is None:
        raise DomainError("a discretization is required")
    delta = v.delta
    a, b = 1.0 - delta, 1.0 + delta
    n_ev = 0

    grid = np.linspace(a, b, 5)
    runs = []  # (end time, mode coefficients); the states are not needed
    for T in grid:
        _, traj_t = _late_mode_coefficient(d, T, v, disc, tau_max, dtau)
        runs.append((traj_t.taus[-1], traj_t.mode_coeffs))
        n_ev += 1
    # compare at the earliest common time: detuned runs may blow up first
    tau_common = min(tau_end for tau_end, _ in runs)
    k = int(round(tau_common / dtau))
    cs = [float(np.real(coeffs[k])) for _, coeffs in runs]
    monotone = bool(np.all(np.diff(cs) > 0) or np.all(np.diff(cs) < 0))
    ca, cb = cs[0], cs[-1]
    if ca == 0.0 or cb == 0.0:
        pass
    elif math.copysign(1.0, ca) == math.copysign(1.0, cb):
        raise NoBracketError(
            f"mode coefficient does not change sign on [{a}, {b}]: "
            f"{ca:.3e} vs {cb:.3e}"
        )

    phi0 = initial_data(d, 1.0 + delta / 2.0, v, disc)
    tol = 1e-8 * max(energy_norm(disc, phi0), 1e-12)

    sign_a = math.copysign(1.0, ca)
    t_eval, c_mid, traj = None, None, None
    while b - a > BISECT_WIDTH:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        c_mid, traj = _late_mode_coefficient(d, mid, v, disc, tau_max, dtau)
        t_eval = mid
        n_ev += 1
        if abs(c_mid) <= tol:
            a = b = mid
            break
        if math.copysign(1.0, c_mid) == sign_a:
            a = mid
        else:
            b = mid
    T_star = 0.5 * (a + b)
    if t_eval != T_star:
        c_mid, traj = _late_mode_coefficient(d, T_star, v, disc, tau_max, dtau)
        n_ev += 1
    return FitResult(
        T_star=float(T_star), residual_mode=abs(c_mid), trajectory=traj,
        bracket=(a, b), monotone=monotone, n_evolutions=n_ev,
    )


def stability_report(fit: FitResult, d: int, delta: float,
                     disc: SpectralDiscretization,
                     tau_eval: float = 10.0) -> dict:
    """Similarity/physical spacetime norms of the fitted solution.

    S_sim  = int_0^tau_max || psi_1(tau) - c_d ||^2_{L^q(B_1)} dtau,
    S_phys = int_0^{T - T e^{-tau_max}} || u - u^T ||^2_{L^q(B_{T-t})} dt
    with q = 2d/(d-3); the two agree by the change of variables
    t = T - T e^{-tau} under which the L^q norm scales as (T-t)^{-1/2}.
    S_phys is integrated on a geometric t-grid with the per-snapshot
    norms interpolated in tau, so the identity is checked through an
    independent integration path.
    """
    traj = fit.trajectory
    T = fit.T_star
    q = 2.0 * d / (d - 3.0) if d > 3 else math.inf
    norms = lq_norm(d, traj.states[:, : disc.N], q, disc)
    s_sim = float(np.trapezoid(norms**2, traj.taus))

    tau_max = traj.tau_max
    n_pan = max(24, int(2 * tau_max))
    tau_edges = np.linspace(0.0, tau_max, n_pan + 1)
    t_edges = T - T * np.exp(-tau_edges)  # geometric refinement toward t_end
    gx, gw = np.polynomial.legendre.leggauss(12)
    s_phys = 0.0
    for ta, tb in zip(t_edges[:-1], t_edges[1:]):
        tm = 0.5 * (ta + tb) + 0.5 * (tb - ta) * gx
        wt = 0.5 * (tb - ta) * gw
        tau_t = np.log(T / (T - tm))
        nq = np.interp(tau_t, traj.taus, norms)
        s_phys += float(np.sum(wt * nq**2 / (T - tm)))

    sup_dev = float(np.max(np.abs(traj.state_at(tau_eval)[: disc.N]))) \
        if tau_eval <= tau_max else None
    return {
        "d": d,
        "delta": delta,
        "T_star": T,
        "residual": fit.residual_mode,
        "S_sim": s_sim,
        "S_phys": s_phys,
        "identity_rel_err": abs(s_sim - s_phys) / max(s_phys, 1e-300),
        "sup_deviation": sup_dev,
        "delta_sq_bound": s_phys <= delta**2,
    }


def instability_demo(d: int, tau_max: float = 10.0,
                     disc: SpectralDiscretization = None,
                     dtau: float = 0.01) -> dict:
    """Gauge-mode growth under blowup-time detuning (not a real instability).

    Evolves v = 0 data with T = 1 +/- DETUNE; the mode coefficient grows
    like e^tau until nonlinear saturation, and its sign follows sign(T-1).
    """
    check_dimension(d, nonlinear=True)
    v0 = zero_perturbation(delta=max(2 * DETUNE, 0.05))
    out = {"d": d, "detune": DETUNE, "slopes": {}, "signs": {}}
    for T in (1.0 - DETUNE, 1.0 + DETUNE):
        phi0 = initial_data(d, T, v0, disc)
        traj = evolve(disc, phi0, tau_max, dtau, "nonlinear")
        c = np.real(traj.mode_coeffs)
        c0 = abs(c[0])
        # fit strictly inside the linear regime: nonlinear feedback bends
        # the rate once the coefficient approaches the profile scale
        window = (np.abs(c) >= c0) & (np.abs(c) <= 0.02 * c_d(d))
        if np.sum(window) >= 5:
            slope = float(np.polyfit(traj.taus[window],
                                     np.log(np.abs(c[window])), 1)[0])
        else:
            slope = math.nan
        out["slopes"][T] = slope
        out["signs"][T] = float(np.sign(c[np.where(np.abs(c) > 0)[0][-1]]))
    phi0 = initial_data(d, 1.0, zero_perturbation(), disc)
    traj = evolve(disc, phi0, min(tau_max, 5.0), dtau, "nonlinear")
    out["tuned_max_coeff"] = float(np.max(np.abs(traj.mode_coeffs)))
    return out
