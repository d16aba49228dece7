"""Time integration in similarity coordinates and spacetime norm diagnostics.

The similarity-coordinate system for the perturbation Phi = Psi - (c_d,
(d-2)/2 c_d) is d_tau Phi = L Phi + (0, N(Phi_1)).  Steps use a Lawson
(integrating-factor) RK4 with the dense matrix exponential e^{dt L / 2}
precomputed by scaling-and-squaring; the linear modes are advanced by
e^{dt L} alone, which is exact in time.

Modes: "linear-free" (L0), "linear-perturbed" (L), "nonlinear" (L plus
pointwise collocation of the nonlinearity, no dealiasing; the top
Chebyshev coefficient of Phi_1 is monitored instead).
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .collocation import SpectralDiscretization, energy_norm, even_cheb_coeffs
from .errors import DomainError, NotConvergedWarning, ParamError
from .model import nonlinearity, sphere_area

BLOWUP_SUP = 1e8

_MODES = ("linear-free", "linear-perturbed", "nonlinear")


@dataclass
class Propagator:
    """Cached exponentials for one (disc, dtau, mode) combination."""

    disc: SpectralDiscretization
    dtau: float
    mode: str
    E: np.ndarray = field(init=False, repr=False)       # linear modes only
    E_half: np.ndarray = field(init=False, repr=False)  # nonlinear mode only

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParamError(f"unknown mode {self.mode!r}")
        lmat = self.disc.L0_mat if self.mode == "linear-free" else self.disc.L_mat
        if self.mode == "nonlinear":
            self.E, self.E_half = None, scipy.linalg.expm(0.5 * self.dtau * lmat)
        else:
            self.E, self.E_half = scipy.linalg.expm(self.dtau * lmat), None

    def _nonlin(self, u):
        n1 = self.disc.N
        out = np.zeros_like(u)
        out[n1:] = nonlinearity(self.disc.d, np.real(u[:n1]))
        return out

    def step(self, u):
        """One step of size dtau; Lawson RK4 in the nonlinear mode."""
        if self.mode != "nonlinear":
            return self.E @ u
        eh = self.E_half
        dt = self.dtau
        k1 = self._nonlin(u)
        eh_u = eh @ u
        eh_k1 = eh @ k1
        u2 = eh_u + 0.5 * dt * eh_k1
        k2 = self._nonlin(u2)
        u3 = eh_u + 0.5 * dt * k2
        k3 = self._nonlin(u3)
        e_u = eh @ eh_u
        u4 = e_u + dt * (eh @ k3)
        k4 = self._nonlin(u4)
        return e_u + dt / 6.0 * (eh @ (eh_k1 + 2.0 * (k2 + k3)) + k4)


def _propagator(disc, dtau, mode):
    # cache lives on the discretization so its lifetime is tied to it
    cache = disc.__dict__.setdefault("_propagators", {})
    key = (float(dtau), mode)
    if key not in cache:
        cache[key] = Propagator(disc, float(dtau), mode)
    return cache[key]


@dataclass
class EvolutionTrajectory:
    """Uniform-step time series with per-snapshot diagnostics."""

    disc: SpectralDiscretization
    dtau: float
    mode: str
    taus: np.ndarray
    states: np.ndarray          # (n_snap, 2N)
    mode_coeffs: np.ndarray     # <Phi, w>_E per snapshot
    energy_norms: np.ndarray
    lq_norms: dict              # q -> per-snapshot array (first component)
    alias_indicator: float      # max top Chebyshev coefficient of Phi_1
    blowup_tau: float = None    # set if the run left the resolvable regime

    @property
    def tau_max(self):
        return float(self.taus[-1])

    def state_at(self, tau: float):
        i = int(round(tau / self.dtau))
        if not (0 <= i < len(self.taus)) or abs(self.taus[i] - tau) > 1e-9:
            raise DomainError(f"tau={tau} is not a snapshot time")
        return self.states[i]


def evolve(disc: SpectralDiscretization, phi0, tau_max: float, dtau: float,
           mode: str, q_list=()):
    """Integrate to tau_max recording every step.

    Diagnostics per snapshot: energy norm, mode coefficient <Phi, w>_E,
    and L^q norms of the first component for each q in q_list.
    """
    if tau_max > 50.0:
        raise DomainError("tau_max must be <= 50")
    n_steps = int(round(tau_max / dtau))
    if abs(n_steps * dtau - tau_max) > 1e-9:
        raise DomainError("tau_max must be a multiple of dtau")
    prop = _propagator(disc, dtau, mode)
    u = np.asarray(phi0, dtype=float if np.isrealobj(phi0) else complex).copy()
    taus = np.arange(n_steps + 1) * dtau
    states = np.empty((n_steps + 1,) + u.shape, dtype=u.dtype)
    states[0] = u
    blowup_tau = None
    alias = 0.0
    n_done = n_steps
    for k in range(n_steps):
        u = prop.step(u)
        states[k + 1] = u
        sup = float(np.max(np.abs(u)))
        if not math.isfinite(sup) or sup > BLOWUP_SUP:
            blowup_tau = taus[k + 1]
            n_done = k + 1
            break
    taus = taus[: n_done + 1]
    states = states[: n_done + 1]
    coeffs = disc.mode_coefficient(states)
    enorms = energy_norm(disc, states)
    lq = {q: lq_norm(disc.d, states[:, : disc.N], q, disc) for q in q_list}
    if mode == "nonlinear":
        # top even-Chebyshev coefficient of Phi_1 relative to its sup norm
        u1 = states[:: max(1, n_done // 50), : disc.N]
        top = np.abs(even_cheb_coeffs(disc, u1)[:, -1])
        alias = float(np.max(top / (np.max(np.abs(u1), axis=1) + 1e-300)))
    return EvolutionTrajectory(
        disc=disc, dtau=dtau, mode=mode, taus=taus, states=states,
        mode_coeffs=coeffs, energy_norms=enorms, lq_norms=lq,
        alias_indicator=alias, blowup_tau=blowup_tau,
    )


# ---------------------------------------------------------------------------
# spacetime norms
# ---------------------------------------------------------------------------


def lq_norm(d: int, u1, q: float, disc: SpectralDiscretization):
    """(|S^{d-1}| int_0^1 |u1|^q rho^{d-1} drho)^{1/q} on the grid.

    u1 may be a stack of first components (leading axis); the norms are
    then returned per state.
    """
    if q < 2.0:
        raise DomainError("q must be >= 2")
    if math.isinf(q):
        out = np.max(np.abs(u1), axis=-1)
    else:
        val = sphere_area(d) * np.sum(disc.quad_weights * np.abs(u1) ** q, axis=-1)
        out = np.maximum(val, 0.0) ** (1.0 / q)
    return float(out) if np.ndim(out) == 0 else out


TAIL_SHARE = 0.05  # largest share of the L^p integral the last 10% may carry


def _strichartz_with_tail(traj: EvolutionTrajectory, p: float, q: float):
    """(L^p_tau L^q_rho norm, share of its p-th power in the last 10%)."""
    disc = traj.disc
    if q in traj.lq_norms:
        g = traj.lq_norms[q]
    else:
        g = lq_norm(disc.d, traj.states[:, : disc.N], q, disc)
    if math.isinf(p):
        return float(np.max(g)), 0.0
    gp = g ** p
    total = float(np.trapezoid(gp, traj.taus))
    if total == 0.0:
        return 0.0, 0.0
    i0 = int(0.9 * (len(traj.taus) - 1))
    tail = float(np.trapezoid(gp[i0:], traj.taus[i0:]))
    return total ** (1.0 / p), tail / total


def _warn_tail(share, p, q, tau_max):
    if share > TAIL_SHARE:
        warnings.warn(
            f"trailing segment carries {share:.1%} of the L^{p} L^{q} "
            f"integral at horizon {tau_max:g}; tau_max may be too small",
            NotConvergedWarning, stacklevel=3,
        )


def strichartz_norm(traj: EvolutionTrajectory, p: float, q: float) -> float:
    """L^p_tau L^q_rho norm of the first component over the trajectory.

    Composite trapezoid in tau of lq_norm^p; p=inf is the max over
    snapshots (a grid-level lower bound of the true sup).  Warns when the
    trailing 10% of the horizon contributes more than TAIL_SHARE of the
    total (horizon likely too short).
    """
    norm, share = _strichartz_with_tail(traj, p, q)
    _warn_tail(share, p, q, traj.tau_max)
    return norm


def strichartz_suite(disc: SpectralDiscretization, pairs, tau_max: float,
                     dtau: float = 0.01, n_samples: int = 10, seed: int = 0):
    """Empirical homogeneous Strichartz ratios for random smooth data.

    For each random pair f, evolve Phi0 = (I-P) f in the linear-perturbed
    mode and record ||[Phi]_1||_{L^p L^q} / ||Phi0||_{H1 x L2} for each
    admissible pair, at horizons tau_max and tau_max/2 (for the
    stability-under-doubling check).  Warns once, naming the worst tail
    share and its pair, when any norm's tail exceeds TAIL_SHARE.

    Returns {"pairs": ..., "ratios": (n_samples, n_pairs), "ratios_half": ...,
    "spread": per-pair max/min}.
    """
    from .collocation import random_smooth_pair, sobolev_norm

    rng = np.random.default_rng(seed)
    qs = sorted({q for _, q in pairs if not math.isinf(q)})
    ratios = np.empty((n_samples, len(pairs)))
    ratios_half = np.empty((n_samples, len(pairs)))
    worst = (0.0, None, None, None)
    for i in range(n_samples):
        f = random_smooth_pair(disc, rng)
        phi0 = f - disc.P_mat @ f
        denom = sobolev_norm(disc, phi0)
        if denom == 0.0:
            ratios[i] = 0.0
            ratios_half[i] = 0.0
            continue
        traj = evolve(disc, phi0, tau_max, dtau, "linear-perturbed", q_list=qs)
        half = len(traj.taus) // 2
        traj_half = EvolutionTrajectory(
            disc=disc, dtau=dtau, mode=traj.mode,
            taus=traj.taus[: half + 1], states=traj.states[: half + 1],
            mode_coeffs=traj.mode_coeffs[: half + 1],
            energy_norms=traj.energy_norms[: half + 1],
            lq_norms={q: v[: half + 1] for q, v in traj.lq_norms.items()},
            alias_indicator=traj.alias_indicator,
        )
        for j, (p, q) in enumerate(pairs):
            for out, tr in ((ratios, traj), (ratios_half, traj_half)):
                norm, share = _strichartz_with_tail(tr, p, q)
                out[i, j] = norm / denom
                if share > worst[0]:
                    worst = (share, p, q, tr.tau_max)
    # one warning per run: the worst share over samples, pairs and horizons
    _warn_tail(*worst)
    spread = ratios.max(axis=0) / np.maximum(ratios.min(axis=0), 1e-300)
    return {
        "pairs": list(pairs),
        "ratios": ratios,
        "ratios_half": ratios_half,
        "spread": spread,
    }


# ---------------------------------------------------------------------------
# snapshot dump
# ---------------------------------------------------------------------------


def dump_trajectory(traj: EvolutionTrajectory, csv_path, json_path,
                    stride: int = 1):
    """CSV columns tau, rho-index, Phi1, Phi2 plus a JSON norm sidecar."""
    disc = traj.disc
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "rho_index", "phi1", "phi2"])
        for k in range(0, len(traj.taus), stride):
            s = traj.states[k]
            for i in range(disc.N):
                wr.writerow([
                    f"{traj.taus[k]:.17g}", i,
                    f"{s[i].real:.17g}", f"{s[disc.N + i].real:.17g}",
                ])
    side = {
        "mode": traj.mode,
        "dtau": traj.dtau,
        "tau_max": traj.tau_max,
        "blowup_tau": traj.blowup_tau,
        "alias_indicator": traj.alias_indicator,
        "energy_norms": [float(x) for x in traj.energy_norms[::stride]],
        "mode_coefficients": [
            [float(c.real), float(c.imag)] for c in traj.mode_coeffs[::stride]
        ],
        "lq_norms": {
            str(q): [float(x) for x in v[::stride]]
            for q, v in traj.lq_norms.items()
        },
    }
    with open(json_path, "w") as fh:
        json.dump(side, fh, indent=1)
