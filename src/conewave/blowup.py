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
comes from re-fits on a coarser grid and with a doubled time step.  The
dimension is read from ``disc.d`` and the perturbation from ``FitResult.v``.

The fit runs coarse to fine.  Its T grid and its first secant run on
the coarse grid of the error bar's re-fit (N' = max(19, round(2N/3)),
built once per fit and kept in ``FitResult.coarse``) at the divisor of
tau_max nearest COARSE_DTAU dtau.  The coarse stage only seeds the fine
one: its secant stops once a step is below COARSE_STOP, and hands on its
next proposal T_c and the slope dc(tau_max)/dT of its last pair.  The
fine stage evolves T_c alone, takes one Newton step with that slope and
evolves the result; the secant (``_secant``) finishes the fit from these
two runs, down to SECANT_STEP.  Each re-fit of the error bar evolves T*
once on its own discretisation and takes one Newton step from it with
the fit's last slope (``_newton_step``).  A Newton step reads c at the
run's last snapshot inside the secant's linear window, tau_max for a
run near its T*; a re-fit whose step is read earlier, on data its grid
does not resolve, is finished by the secant.

Runs that do not depend on each other are one stacked evolution: the
fit's 5-point T grid and the detuned pair of ``instability_demo``.  The
secant's and the Newton steps' runs stay one at a time.  Evolution
counts count the members of a stack, coarse and fine alike.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .collocation import SpectralDiscretization, build
# energy_norm is unused here, but the benchmark's tracer patches
# conewave.blowup:energy_norm
from .collocation import energy_norm  # noqa: F401
from .errors import DomainError, NoBracketError, SecantFailure
from .evolve import EvolutionTrajectory, evolve, lq_norm
from .model import c_d, check_dimension

WINDOW = 0.01  # linear window of the secant: |c| <= WINDOW c_d
SECANT_STEP = 1e-14  # a secant step this small at tau_max ends the fit
SECANT_MAX_STEPS = 20
COARSE_STOP = 1e-12  # a coarse secant step this small seeds the fine stage
COARSE_DTAU = 4  # the coarse stage steps at ~4 dtau, a divisor of tau_max
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


def initial_data(disc: SpectralDiscretization, T: float,
                 v: PerturbationData) -> np.ndarray:
    """Grid sample of U(T, v) in dimension disc.d (Phi at tau=0)."""
    d = disc.d
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
    trajectory: EvolutionTrajectory
    bracket: tuple
    monotone: bool
    n_evolutions: int
    slope: float  # dc(tau_max)/dT of the fit's last pair
    v: PerturbationData  # the data the fit was made to
    coarse: SpectralDiscretization  # reused by refinement_error

    @property
    def residual_mode(self):
        """|c| at the end of the trajectory."""
        return abs(float(np.real(self.trajectory.mode_coeffs[-1])))


def _evolve_at(disc, T, v, tau_max, dtau):
    """Nonlinear run from U(T, v); a sequence of T is one stacked run."""
    if np.ndim(T):
        phi0 = np.array([initial_data(disc, t, v) for t in T])
    else:
        phi0 = initial_data(disc, T, v)
    return evolve(disc, phi0, tau_max, dtau, "nonlinear")


def _coarse_grid(disc):
    """The coarse grid of the fit and of the error bar's re-fit; 19 is
    the least N that ``build`` accepts at every nonlinear d."""
    return build(disc.d, max(19, round(2 * disc.N / 3)))


def _window_end(limit, *cs):
    """The last snapshot up to which every coefficient sequence of ``cs``
    satisfies |c| <= limit, over their common length; 0 if there is none."""
    n = min(len(c) for c in cs)
    inside = np.all([np.abs(c[:n]) <= limit for c in cs], axis=0)
    outside = np.flatnonzero(~inside)
    return max(outside[0] - 1 if outside.size else n - 1, 0)


def _secant(disc, v, tau_max, dtau, older, newer, stop):
    """Secant in T on the gauge-mode coefficient inside its linear window.

    ``older`` and ``newer`` are (T, trajectory) pairs.  Each step reads
    the mode coefficients of both runs at the last snapshot k up to
    which both satisfy |c| <= WINDOW c_d (k = 0 if there is none):
    past it the nonlinearity saturates c and the secant would diverge.
    The window moves out to tau_max as the pair closes.  Stops, without
    evolving the next iterate, once that iterate is within ``stop`` of
    the newer one and k is the tau_max snapshot, or once c(tau_max) of the
    newer run is exactly 0.

    Returns (proposal, trajectory at T*, last pair ending at T*, evolutions
    made, slope); the proposal is the iterate the secant would evolve
    next, and the slope is dc/dT of the last pair at its snapshot k, the
    tau_max one unless c(tau_max) is exactly 0.  The trajectory is the
    newer one passed in when the secant stops before its first run.
    """
    n_last = int(round(tau_max / dtau))
    limit = WINDOW * c_d(disc.d)
    (t0, traj0), (t1, traj1) = older, newer
    n_ev = 0
    for _ in range(SECANT_MAX_STEPS):
        c0, c1 = np.real(traj0.mode_coeffs), np.real(traj1.mode_coeffs)
        k = _window_end(limit, c0, c1)
        if len(c1) > n_last and c1[n_last] == 0.0:
            t_next = t1
            break
        if c1[k] == c0[k]:
            raise SecantFailure(
                f"equal mode coefficients {c1[k]:.3e} at tau={k * dtau:g} "
                f"for the pair T={t0!r}, {t1!r}")
        t_next = t1 - c1[k] * (t1 - t0) / (c1[k] - c0[k])
        if k == n_last and abs(t_next - t1) <= stop:
            break
        if not (1.0 - v.delta <= t_next <= 1.0 + v.delta):
            raise SecantFailure(
                f"secant step to T={t_next!r} leaves [1-delta, 1+delta] "
                f"from the pair T={t0!r}, {t1!r}")
        traj = _evolve_at(disc, t_next, v, tau_max, dtau)
        n_ev += 1
        (t0, traj0), (t1, traj1) = (t1, traj1), (t_next, traj)
    else:
        raise SecantFailure(
            f"no convergence in {SECANT_MAX_STEPS} secant steps; last pair "
            f"T={t0!r}, {t1!r}")
    slope = float((c1[k] - c0[k]) / (t1 - t0))
    return float(t_next), traj1, (float(t0), float(t1)), n_ev, slope


def _newton_step(disc, v, tau_max, dtau, T, slope):
    """One run from U(T, v) and the Newton step T - c(tau_k) / slope_k.

    tau_k is the last snapshot up to which the run's c stays inside the
    secant's linear window |c| <= WINDOW c_d, tau_max for a run near its
    T*, and slope_k = slope e^{tau_k - tau_max}, since the gauge mode
    grows like e^tau there.  Returns (next T, trajectory at T, whether
    tau_k is tau_max).  Raises SecantFailure when c(0) already lies
    outside the window, where no slope holds.
    """
    traj = _evolve_at(disc, T, v, tau_max, dtau)
    c = np.real(traj.mode_coeffs)
    limit = WINDOW * c_d(disc.d)
    if not abs(c[0]) <= limit:
        raise SecantFailure(
            f"c(0) of the run at T={T!r} leaves the linear window")
    k = _window_end(limit, c)
    n_last = int(round(tau_max / dtau))
    step = c[k] / (slope * math.exp((k - n_last) * dtau))
    return float(T - step), traj, k == n_last


def fit_blowup_time(disc: SpectralDiscretization, v: PerturbationData,
                    tau_max: float = 12.0, dtau: float = 0.01) -> FitResult:
    """Secant in T so the evolved solution carries no late gauge mode.

    Coarse to fine.  On the coarse grid N' = max(19, round(2N/3)) at
    dtau_c = tau_max / max(1, round(tau_max / (COARSE_DTAU dtau))), the
    divisor of tau_max nearest 4 dtau, the coefficient
    c(tau) = <Phi(tau), w>_E is checked for a sign change and for
    monotonicity in T on a 5-point grid over 1 +/- v.delta, one stacked
    run, and a secant (``_secant``) starts from the adjacent grid pair
    that brackets the zero.  It stops once its step is below COARSE_STOP,
    so its last pair lies at most ~1e-9 apart and its slope
    dc(tau_max)/dT matches the fine grid's to ~1e-4 relative.  At (N,
    dtau) the fine stage evolves the coarse stage's next proposal T_c,
    takes one Newton step from it with that slope (``_newton_step``) and
    evolves the result; the secant from these two runs converges to the
    fitted blowup time.  For the bump T_c lies ~5e-12 from it at d 4,
    N 96, so the fine stage is two runs and at most one more, and one run
    when the Newton step leaves T_c where it is (c(tau_max) exactly 0 at
    T_c).  On data the coarse grid does not resolve, T_c lies further off
    than the fine linear window is wide (the window spans ~1e-7 in T at
    d 4, tau_max 12), the Newton step is read at an earlier snapshot and
    the secant takes more runs: 6 fine runs for a kink and a jump inside
    the cone at d 4, N 48, whose T_c lies ~1e-5 off.
    ``bracket`` is the fine stage's last pair, (T_c, T_c) for a single
    run, ``slope`` its dc(tau_max)/dT (the coarse one for a single run),
    ``n_evolutions`` counts every member evolution, coarse and fine, and
    ``coarse`` keeps the coarse grid for ``refinement_error``.
    """
    # the gate first: at d >= 7 the coarse grid may not build
    check_dimension(disc.d, nonlinear=True)
    delta = v.delta
    a, b = 1.0 - delta, 1.0 + delta
    coarse = _coarse_grid(disc)
    dtau_c = tau_max / max(1, round(tau_max / (COARSE_DTAU * dtau)))

    grid = np.linspace(a, b, 5)
    runs = _evolve_at(coarse, grid, v, tau_max, dtau_c)  # one stacked run
    # compare at the earliest common time: detuned runs may blow up first
    k = min(len(traj.taus) for traj in runs) - 1
    cs = [float(np.real(traj.mode_coeffs[k])) for traj in runs]
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
    # the coarse stage only seeds the fine stage
    t_c, _, _, n_c, slope = _secant(
        coarse, v, tau_max, dtau_c, (grid[old], runs[old]),
        (grid[new], runs[new]), COARSE_STOP)
    del runs  # the fine stage reads none of the coarse states
    t_1, traj, _ = _newton_step(disc, v, tau_max, dtau, t_c, slope)
    pair, n_f = (t_c, t_c), 1
    if t_1 != t_c:
        _, traj, pair, n_sec, slope = _secant(
            disc, v, tau_max, dtau, (t_c, traj),
            (t_1, _evolve_at(disc, t_1, v, tau_max, dtau)), SECANT_STEP)
        n_f += 1 + n_sec
    return FitResult(
        T_star=pair[1], trajectory=traj, bracket=pair, monotone=monotone,
        n_evolutions=len(grid) + n_c + n_f, slope=slope, v=v, coarse=coarse,
    )


def refinement_error(fit: FitResult) -> dict:
    """Error bar of T* and S_phys from two re-fits of ``fit`` to its data.

    Re-fits at (N, 2 dtau) and at (2N/3, dtau), the latter on the fit's
    coarse grid.  Each evolves T* once and moves it by the Newton step
    -c_r(tau_max) / ``fit.slope`` (``_newton_step``): a slope error moves
    the step by that relative error times the shift, which is at most
    ~4e-12 at d 3..6, so the step matches a converged secant far below
    SECANT_STEP, and shifts below it count.  When T* lies outside a
    re-fit's linear window (data the re-fit's grid does not resolve), the
    step is read at an earlier snapshot and the secant (``_secant``) from
    T* and that step finishes the re-fit; ``n_evolutions_err`` counts its
    runs.
    Lawson RK4 is fourth order, so the 2 dtau change bounds the dtau error
    of T* from above (by ~15x); S_phys is integrated in tau at fourth
    order too.  Each error is the largest change over the two re-fits;
    tau_max must be a multiple of 2 dtau (DomainError otherwise).
    """
    base, v = fit.trajectory, fit.v
    disc, dtau, tau_max = base.disc, base.dtau, base.tau_max
    if round(tau_max / dtau) % 2:
        raise DomainError(
            f"the 2 dtau re-fit needs tau_max={tau_max:g} to be a multiple "
            f"of 2 dtau={2.0 * dtau:g}")
    s_phys = stability_report(fit, tau_max)["S_phys"]
    t_err = s_err = 0.0
    n_err = 0
    for disc_r, dtau_r in ((disc, 2.0 * dtau), (fit.coarse, dtau)):
        t_next, traj, at_end = _newton_step(disc_r, v, tau_max, dtau_r,
                                            fit.T_star, fit.slope)
        n_err += 1
        if not at_end:
            # T* leaves this re-fit's linear window: finish by secant
            t_next, traj, _, n_sec, _ = _secant(
                disc_r, v, tau_max, dtau_r, (fit.T_star, traj),
                (t_next, _evolve_at(disc_r, t_next, v, tau_max, dtau_r)),
                SECANT_STEP)
            n_err += 1 + n_sec
        s_r = stability_report(replace(fit, trajectory=traj),
                               tau_max)["S_phys"]
        t_err = max(t_err, abs(t_next - fit.T_star))
        s_err = max(s_err, abs(s_r - s_phys))
    return {"T_star_err": t_err, "S_phys_err": s_err,
            "n_evolutions_err": n_err}


def _simpson_weights(n):
    """Composite Simpson weights for n unit intervals; an odd n ends with
    Simpson's 3/8 rule on its last three, n = 1 is the trapezoid rule."""
    if n == 1:
        return np.full(2, 0.5)
    m = n - 3 * (n % 2)  # Simpson on [0, m], the 3/8 rule on [m, n]
    w = np.zeros(n + 1)
    if m:
        w[1:m:2], w[2:m:2], w[[0, m]] = 4.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0
    if m < n:
        w[m:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def _lagrange4(values, s):
    """values on the grid 0, 1, 2, ... at positions s, by Lagrange
    interpolation through the 4 nodes around each s."""
    k = min(4, len(values))
    j = np.clip(np.floor(s).astype(int) - 1, 0, len(values) - k)
    out = 0.0
    for a in range(k):
        w = np.prod([(s - j - b) / (a - b) for b in range(k) if b != a], axis=0)
        out = out + w * values[j + a]
    return out


def stability_report(fit: FitResult, tau_eval: float = 10.0) -> dict:
    """Similarity/physical spacetime norms of the fitted solution.

    S_sim  = int_0^tau_max || psi_1(tau) - c_d ||^2_{L^q(B_1)} dtau,
    S_phys = int_0^{T - T e^{-tau_max}} || u - u^T ||^2_{L^q(B_{T-t})} dt
    with q = 2d/(d-3); the two agree by the change of variables
    t = T - T e^{-tau} under which the L^q norm scales as (T-t)^{-1/2}.
    S_sim is a Simpson sum of the per-snapshot norms; S_phys is integrated
    by Gauss-Legendre on the geometric t-grid of the tau steps with the
    norms interpolated in tau by 4-point Lagrange, so the identity is
    checked through an independent path, fourth order in dtau like S_sim.
    """
    traj = fit.trajectory
    disc, d, delta = traj.disc, traj.disc.d, fit.v.delta
    T = fit.T_star
    q = 2.0 * d / (d - 3.0) if d > 3 else math.inf
    norms = lq_norm(disc, traj.states[:, : disc.N], q)
    s_sim = float(_simpson_weights(len(norms) - 1) @ norms**2) * traj.dtau

    tau_max = traj.tau_max
    # one t-panel per tau step, where the interpolant is one cubic in tau
    t_edges = T - T * np.exp(-traj.taus)  # geometric refinement toward t_end
    gx, gw = np.polynomial.legendre.leggauss(4)
    ta, tb = t_edges[:-1, None], t_edges[1:, None]
    tm = 0.5 * (ta + tb) + 0.5 * (tb - ta) * gx
    nq = _lagrange4(norms, np.log(T / (T - tm)) / traj.dtau)
    s_phys = float(np.sum(0.5 * (tb - ta) * gw * nq**2 / (T - tm)))

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


def growth_limit(d: int) -> float:
    """Top of `instability_demo`'s slope window: twice the detuned data's
    linear mode coefficient DETUNE l(d_T U0) = DETUNE (d-2) c_d / 4, so
    that the window spans a factor 2 of growth at every d (0.02 c_d at
    d 4; a fixed 0.02 c_d left fewer than 5 snapshots at d 6)."""
    return (d - 2) / 2.0 * DETUNE * c_d(d)


def instability_demo(disc: SpectralDiscretization, tau_max: float = 10.0,
                     dtau: float = 0.01) -> dict:
    """Gauge-mode growth under blowup-time detuning (not a real instability).

    Evolves v = 0 data with T = 1 +/- DETUNE; the mode coefficient grows
    like e^tau until nonlinear saturation, and its sign follows sign(T-1).
    The slope is fitted on the window c0 <= |c| <= `growth_limit(d)`
    (None if it holds fewer than 5 snapshots), so the pair is evolved only
    to min(tau_max, ln(limit / min |c0|) + 1), one tau unit past the time
    the window closes at rate 1; the sign is that of the last nonzero
    coefficient.
    """
    d = disc.d
    v0 = zero_perturbation(delta=max(2 * DETUNE, 0.05))
    out = {"d": d, "detune": DETUNE, "slopes": {}, "signs": {}}
    pair = (1.0 - DETUNE, 1.0 + DETUNE)
    limit = growth_limit(d)
    c_start = np.abs(disc.mode_coefficient(
        [initial_data(disc, T, v0) for T in pair]))
    n_close = math.ceil((math.log(limit / c_start.min()) + 1.0) / dtau)
    n_steps = min(round(tau_max / dtau), max(1, n_close))
    for T, traj in zip(pair, _evolve_at(disc, pair, v0, n_steps * dtau,
                                        dtau)):
        c = np.real(traj.mode_coeffs)
        c0 = abs(c[0])
        # fit strictly inside the linear regime: nonlinear feedback bends
        # the rate once the coefficient approaches the profile scale
        window = (np.abs(c) >= c0) & (np.abs(c) <= limit)
        slope = None
        if np.sum(window) >= 5:
            slope = float(np.polyfit(traj.taus[window],
                                     np.log(np.abs(c[window])), 1)[0])
        out["slopes"][T] = slope
        out["signs"][T] = float(np.sign(c[np.where(np.abs(c) > 0)[0][-1]]))
    return out
