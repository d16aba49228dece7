"""Blowup-time fitting and the nonlinear stability experiment.

Perturbed Cauchy data (f, g) = u^1[0] + v enter the similarity frame
through the map

    U(T, v)(rho) = (T^{(d-2)/2} v1(T rho), T^{d/2} v2(T rho))
                   + (T^{(d-2)/2} c_d, (d-2)/2 T^{d/2} c_d)
                   - (c_d, (d-2)/2 c_d),

whose T-derivative at T=1, v=0 is (d-2)/4 c_d g: detuning the blowup
time excites exactly the gauge mode.  The fitted blowup time T* is the
zero of the late-time gauge-mode coefficient of the nonlinear evolution
started from U(T, v), found by a secant in T on that coefficient inside
its linear window; on the stable manifold this coefficient vanishes
together with the Lyapunov-Perron correction functional.  Its error bar
comes from re-fits on a coarser grid and with a doubled time step.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

# energy_norm is unused here, but the benchmark's tracer patches
# conewave.blowup:energy_norm
from .collocation import SpectralDiscretization, build, energy_norm
from .errors import DomainError, NoBracketError, SecantFailure
from .evolve import EvolutionTrajectory, evolve, lq_norm
from .model import c_d, check_dimension

WINDOW = 0.01  # linear window of the secant: |c| <= WINDOW c_d
SECANT_STEP = 1e-14  # a secant step this small at tau_max ends the fit
SECANT_MAX_STEPS = 20
REFIT_OFFSET = 1e-9  # second start point of the error-bar re-fits
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


def _evolve_at(d, T, v, disc, tau_max, dtau):
    return evolve(disc, initial_data(d, T, v, disc), tau_max, dtau, "nonlinear")


def _secant(d, v, disc, tau_max, dtau, older, newer):
    """Secant in T on the gauge-mode coefficient inside its linear window.

    ``older`` is (T, mode coefficients); ``newer`` is (T, mode coefficients,
    trajectory or None).  Each step reads both runs at the last snapshot k
    up to which both satisfy |c| <= WINDOW c_d (k = 0 if there is none):
    past it the nonlinearity saturates c and the secant would diverge.
    The window moves out to tau_max as the pair closes.  Stops, without
    evolving the next iterate, once that iterate is within SECANT_STEP of
    the newer one and k is the tau_max snapshot, or once c(tau_max) of the
    newer run is exactly 0.  Only the older run's coefficients are kept.

    Returns (T*, trajectory at T*, last pair, evolutions made).
    """
    n_last = int(round(tau_max / dtau))
    limit = WINDOW * c_d(d)
    (t0, c0), (t1, c1, traj) = older, newer
    n_ev = 0
    for _ in range(SECANT_MAX_STEPS):
        if len(c1) > n_last and c1[n_last] == 0.0:
            break
        n = min(len(c0), len(c1))
        inside = (np.abs(c0[:n]) <= limit) & (np.abs(c1[:n]) <= limit)
        outside = np.flatnonzero(~inside)
        k = max(outside[0] - 1 if outside.size else n - 1, 0)
        if c1[k] == c0[k]:
            raise SecantFailure(
                f"equal mode coefficients {c1[k]:.3e} at tau={k * dtau:g} "
                f"for the pair T={t0!r}, {t1!r}")
        t_next = t1 - c1[k] * (t1 - t0) / (c1[k] - c0[k])
        if k == n_last and abs(t_next - t1) <= SECANT_STEP:
            break
        if not (1.0 - v.delta <= t_next <= 1.0 + v.delta):
            raise SecantFailure(
                f"secant step to T={t_next!r} leaves [1-delta, 1+delta] "
                f"from the pair T={t0!r}, {t1!r}")
        traj = _evolve_at(d, t_next, v, disc, tau_max, dtau)
        n_ev += 1
        t0, c0 = t1, c1
        t1, c1 = t_next, np.real(traj.mode_coeffs)
    else:
        raise SecantFailure(
            f"no convergence in {SECANT_MAX_STEPS} secant steps; last pair "
            f"T={t0!r}, {t1!r}")
    if traj is None:  # the newer run came from the grid scan
        traj = _evolve_at(d, t1, v, disc, tau_max, dtau)
        n_ev += 1
    return float(t1), traj, (float(t0), float(t1)), n_ev


def fit_blowup_time(d: int, v: PerturbationData, tau_max: float = 12.0,
                    disc: SpectralDiscretization = None,
                    dtau: float = 0.01) -> FitResult:
    """Secant in T so the evolved solution carries no late gauge mode.

    The coefficient c(tau) = <Phi(tau), w>_E is checked for a sign change
    and for monotonicity in T on a 5-point grid over 1 +/- v.delta.  The
    secant (``_secant``) starts from the adjacent grid pair that brackets
    the zero; its limit is the fitted blowup time.  ``bracket`` is the
    secant's last pair and ``n_evolutions`` counts the grid runs too.
    """
    check_dimension(d, nonlinear=True)
    if disc is None:
        raise DomainError("a discretization is required")
    delta = v.delta
    a, b = 1.0 - delta, 1.0 + delta

    grid = np.linspace(a, b, 5)
    # the mode coefficients only: the states are not needed
    coeffs = [np.real(_evolve_at(d, T, v, disc, tau_max, dtau).mode_coeffs)
              for T in grid]
    # compare at the earliest common time: detuned runs may blow up first
    k = min(len(c) for c in coeffs) - 1
    cs = [float(c[k]) for c in coeffs]
    monotone = bool(np.all(np.diff(cs) > 0) or np.all(np.diff(cs) < 0))
    ca, cb = cs[0], cs[-1]
    if ca == 0.0 or cb == 0.0:
        pass
    elif math.copysign(1.0, ca) == math.copysign(1.0, cb):
        raise NoBracketError(
            f"mode coefficient does not change sign on [{a}, {b}]: "
            f"{ca:.3e} vs {cb:.3e}"
        )

    i = next(i for i in range(4) if cs[i] * cs[i + 1] <= 0.0)
    # the newer iterate is the one nearer the zero
    old, new = (i + 1, i) if abs(cs[i]) < abs(cs[i + 1]) else (i, i + 1)
    T_star, traj, pair, n_ev = _secant(
        d, v, disc, tau_max, dtau, (grid[old], coeffs[old]),
        (grid[new], coeffs[new], None))
    return FitResult(
        T_star=T_star, residual_mode=abs(float(np.real(traj.mode_coeffs[-1]))),
        trajectory=traj, bracket=pair, monotone=monotone,
        n_evolutions=len(grid) + n_ev,
    )


def refinement_error(fit: FitResult, v: PerturbationData) -> dict:
    """Error bar of T* and S_phys from two re-fits of ``fit`` to data v.

    Re-fits at (N, 2 dtau) and at (2N/3, dtau), each a secant warm-started
    from the pair (T*, T* + REFIT_OFFSET).  Lawson RK4 is fourth order, so
    the 2 dtau change bounds the dtau error of T* from above (by ~15x);
    S_phys is integrated in tau at second order (~3x).  Each error is the
    largest change over the two re-fits; tau_max must be a multiple of
    2 dtau (DomainError otherwise).
    """
    base = fit.trajectory
    disc, d, dtau, tau_max = base.disc, base.disc.d, base.dtau, base.tau_max
    if round(tau_max / dtau) % 2:
        raise DomainError(
            f"the 2 dtau re-fit needs tau_max={tau_max:g} to be a multiple "
            f"of 2 dtau={2.0 * dtau:g}")
    s_phys = stability_report(fit, d, v.delta, disc, tau_max)["S_phys"]
    coarse = build(d, max(16, round(2 * disc.N / 3)))
    t_err = s_err = 0.0
    n_ev = 0
    for disc_r, dtau_r in ((disc, 2.0 * dtau), (coarse, dtau)):
        t1 = fit.T_star
        t0 = t1 + REFIT_OFFSET
        c0 = np.real(_evolve_at(d, t0, v, disc_r, tau_max, dtau_r).mode_coeffs)
        traj = _evolve_at(d, t1, v, disc_r, tau_max, dtau_r)
        T_r, traj, _, n_sec = _secant(
            d, v, disc_r, tau_max, dtau_r, (t0, c0),
            (t1, np.real(traj.mode_coeffs), traj))
        n_ev += 2 + n_sec
        refit = replace(fit, T_star=T_r, trajectory=traj)
        s_r = stability_report(refit, d, v.delta, disc_r, tau_max)["S_phys"]
        t_err = max(t_err, abs(T_r - fit.T_star))
        s_err = max(s_err, abs(s_r - s_phys))
    return {"T_star_err": t_err, "S_phys_err": s_err,
            "n_evolutions_err": n_ev}


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
