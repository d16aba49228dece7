"""Time integration in similarity coordinates and spacetime norm diagnostics.

The similarity-coordinate system for the perturbation Phi = Psi - (c_d,
(d-2)/2 c_d) is d_tau Phi = L Phi + (0, N(Phi_1)).  Steps use a Lawson
(integrating-factor) RK4 with the dense matrix exponential e^{dt L / 2}
precomputed by ``expm``, Al-Mohy & Higham's Pade-13 scaling and squaring
(SIAM J. Matrix Anal. Appl. 31(3), 2009, Algorithm 5.1); the linear
modes are advanced by e^{dt L} alone, which is exact in time.

``evolve`` steps one state or a stack of states as one block of columns.
A member that passes BLOWUP_SUP leaves the block with its own blowup
time; the others go on to tau_max.  A trajectory holds its states, mode
coefficients and alias indicator; norms are computed where they are
read: ``energy_norms`` on first read, the L^q norms by ``lq_norm`` in
the Strichartz suite, the trajectory dump and the blowup report.

Modes: "linear-free" (L0), "linear-perturbed" (L), "nonlinear" (L plus
pointwise collocation of the nonlinearity, no dealiasing; the top
Chebyshev coefficient of Phi_1 is monitored instead).
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# scipy is unused here, but the benchmark's tracer patches the expm of
# scipy's linalg subpackage through this module's scipy binding
import scipy  # noqa: F401

from .collocation import (SpectralDiscretization, energy_norm, even_cheb_coeffs,
                          random_smooth_pair, sobolev_norm)
from .errors import DomainError, NotConvergedWarning, ParamError
from .model import nonlinearity, sphere_area, strichartz_pairs

BLOWUP_SUP = 1e8

_MODES = ("linear-free", "linear-perturbed", "nonlinear")

# coefficients b_k of the Pade-13 numerator p(x); r_13(x) = p(x) / p(-x)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152  # largest ||A|| with r_13's backward error <= 2^-53
# log2 of 1/c_27, c_27 = (13!)^2 / (26! 27!) the leading coefficient of
# r_13's backward-error series
_LOG2_C27_RECIP = math.log2(math.factorial(26) * math.factorial(27)
                            / math.factorial(13) ** 2)


def _norm1(a):
    return float(np.abs(a).sum(axis=0).max())


def expm(a):
    """e^a of a square real or complex matrix.

    Pade-13 scaling and squaring after Al-Mohy & Higham (2009, Algorithm
    5.1).  The scaling 2^-s is chosen from the exact d_k = ||A^k||_1^(1/k)
    for k = 6, 8, 10, with A^8 and A^10 built from the A^4 and A^6 the
    Pade step forms anyway: for the collocation matrices ||A||_1 is orders
    of magnitude above d_k, and a scaling from ||A||_1 would square too
    often and lose accuracy.  s is then raised by ell, the least count
    that keeps the leading term of r_13's backward error at unit
    roundoff, from ||(|2^-s A|)^27||_1.
    """
    n = a.shape[0]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    d8 = _norm1(a4 @ a4) ** (1 / 8)
    eta = min(max(_norm1(a6) ** (1 / 6), d8),
              max(d8, _norm1(a4 @ a6) ** (1 / 10)))
    s = math.ceil(math.log2(eta / _THETA13)) if eta > _THETA13 else 0
    s += _ell(a * 2.0 ** -s)
    if s:
        a, a2, a4, a6 = (a * 2.0 ** -s, a2 * 4.0 ** -s, a4 * 16.0 ** -s,
                         a6 * 64.0 ** -s)
    b = _PADE13
    ident = np.eye(n)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # r_13 = (V + U)(V - U)^-1 = I + 2 U (V - U)^-1 (U and V commute),
    # solved from the right: after the squarings it keeps the gauge
    # eigenpair of L (g at 1) to ~3e-11, where (V - U)^-1 (V + U), solved
    # from the left, misses it by ~1e-9 at N 96
    r = np.linalg.solve((v - u).T, 2.0 * u.T).T
    r[np.diag_indices(n)] += 1.0
    for _ in range(s):
        r = r @ r
    return r


def _ell(a):
    """Extra squarings so that r_13's leading backward-error term
    |c_27| ||(|A|)^27||_1 / ||A||_1 stays below 2^-53 (the 2009 paper's
    ell(A, 13)); the power's norm is exact, 27 vector products with |A|,
    each divided by ||A||_1 so that it cannot overflow."""
    a_abs = np.abs(a)
    norm = _norm1(a_abs)
    if norm == 0.0:
        return 0
    w = np.ones(len(a))
    for _ in range(27):
        w = (w @ a_abs) / norm
    peak = float(w.max())
    if peak == 0.0:
        return 0
    log2_alpha = 26 * math.log2(norm) + math.log2(peak) - _LOG2_C27_RECIP
    return max(math.ceil((log2_alpha + 53) / 26), 0)


@dataclass
class Propagator:
    """Cached exponentials for one (disc, dtau, mode) combination."""

    disc: SpectralDiscretization
    dtau: float
    mode: str
    E: np.ndarray = field(init=False, repr=False)  # E_half @ E_half if nonlinear
    E_half: np.ndarray = field(init=False, repr=False)  # nonlinear mode only

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParamError(f"unknown mode {self.mode!r}")
        lmat = self.disc.L0_mat if self.mode == "linear-free" else self.disc.L_mat
        if self.mode == "nonlinear":
            self.E_half = expm(0.5 * self.dtau * lmat)
            self.E = self.E_half @ self.E_half
        else:
            self.E, self.E_half = expm(self.dtau * lmat), None

    def step(self, u):
        """One step of size dtau; Lawson RK4 in the nonlinear mode.

        u is one state (2N,) or a block of states (2N, m), real in the
        nonlinear mode.  The nonlinear term (0, N(u1)) has no first block,
        so it meets only the second block columns of E_half and E, and of
        the stage states only the first block is formed.  The linear part
        stays E_half @ (E_half @ u); k3 reads the first block of E_half @ u.
        """
        if self.mode != "nonlinear":
            return self.E @ u
        n, d, dt = self.disc.N, self.disc.d, self.dtau
        eh = self.E_half
        b = eh[:, n:]
        k1 = nonlinearity(d, u[:n])
        eh_u = eh @ u
        k2 = nonlinearity(d, eh_u[:n] + 0.5 * dt * (b[:n] @ k1))
        k3 = nonlinearity(d, eh_u[:n])
        e_u = eh @ eh_u
        k4 = nonlinearity(d, e_u[:n] + dt * (b[:n] @ k3))
        out = e_u + dt / 6.0 * (self.E[:, n:] @ k1 + b @ (2.0 * (k2 + k3)))
        out[n:] += dt / 6.0 * k4
        return out


def _propagator(disc, dtau, mode):
    # cache lives on the discretization so its lifetime is tied to it
    cache = disc.__dict__.setdefault("_propagators", {})
    key = (float(dtau), mode)
    if key not in cache:
        cache[key] = Propagator(disc, float(dtau), mode)
    return cache[key]


@dataclass
class EvolutionTrajectory:
    """Uniform-step time series of one state with per-snapshot diagnostics.

    ``energy_norms`` is computed from the states on first read.
    """

    disc: SpectralDiscretization
    dtau: float
    mode: str
    taus: np.ndarray
    states: np.ndarray          # (n_snap, 2N)
    mode_coeffs: np.ndarray     # <Phi, w>_E per snapshot
    alias_indicator: float      # max top Chebyshev coefficient of Phi_1
    blowup_tau: float = None    # set if the run left the resolvable regime

    @cached_property
    def energy_norms(self):
        return energy_norm(self.disc, self.states)

    @property
    def tau_max(self):
        return float(self.taus[-1])

    def state_at(self, tau: float):
        i = int(round(tau / self.dtau))
        if not (0 <= i < len(self.taus)) or abs(self.taus[i] - tau) > 1e-9:
            raise DomainError(f"tau={tau} is not a snapshot time")
        return self.states[i]


class TrajectoryStack(list):
    """The member trajectories of one stacked evolution, in input order.

    ``taus`` is the block's time grid up to its last step; ``blowup_tau``
    is set when every member blew up, so that the block stopped there.
    """

    def __init__(self, members, taus, blowup_tau=None):
        super().__init__(members)
        self.taus, self.blowup_tau = taus, blowup_tau


def evolve(disc: SpectralDiscretization, phi0, tau_max: float, dtau: float,
           mode: str):
    """Integrate to tau_max recording every step.

    phi0 is one state (2N,), which gives an EvolutionTrajectory, or a stack
    of m states (m, 2N), which are stepped together as one (2N, m) block
    and give a TrajectoryStack.  A member whose sup norm passes BLOWUP_SUP
    (or is not finite) leaves the block there with its own blowup_tau; the
    others go on to tau_max.

    Diagnostics per snapshot: the mode coefficient <Phi, w>_E; the energy
    norm on first read.
    """
    if tau_max > 50.0:
        raise DomainError("tau_max must be <= 50")
    n_steps = int(round(tau_max / dtau))
    if abs(n_steps * dtau - tau_max) > 1e-9:
        raise DomainError("tau_max must be a multiple of dtau")
    prop = _propagator(disc, dtau, mode)
    u = np.array(phi0, dtype=float if np.isrealobj(phi0) else complex)
    single = u.ndim == 1
    m = 1 if single else len(u)
    taus = np.arange(n_steps + 1) * dtau
    states = np.empty((m, n_steps + 1, u.shape[-1]), dtype=u.dtype)
    states[:, 0] = u
    u = np.ascontiguousarray(u.T)
    ends = np.full(m, n_steps)
    blowup = [None] * m
    live = slice(None)  # block columns -> members; an index array once one leaves
    for k in range(n_steps):
        u = prop.step(u)
        states[live, k + 1] = u.T
        # one test on the whole block; not (x <= BLOWUP_SUP) also catches nan
        if np.abs(u).max() <= BLOWUP_SUP:
            continue
        gone = np.atleast_1d(~(np.abs(u).max(axis=0) <= BLOWUP_SUP))
        members = np.arange(m)[live]
        for j in members[gone]:
            ends[j], blowup[j] = k + 1, taus[k + 1]
        live = members[~gone]
        if not live.size:
            break
        u = u[:, ~gone]
    trajs = [_trajectory(disc, dtau, mode, taus[: e + 1], states[j, : e + 1],
                         blowup[j])
             for j, e in enumerate(ends)]
    if single:
        return trajs[0]
    return TrajectoryStack(trajs, taus[: ends.max() + 1],
                           None if None in blowup else max(blowup))


def _trajectory(disc, dtau, mode, taus, states, blowup_tau):
    """One member's trajectory and its per-snapshot diagnostics."""
    alias = 0.0
    if mode == "nonlinear":
        # top even-Chebyshev coefficient of Phi_1 relative to its sup norm
        u1 = states[:: max(1, (len(taus) - 1) // 50), : disc.N]
        top = np.abs(even_cheb_coeffs(disc, u1)[:, -1])
        alias = float(np.max(top / (np.max(np.abs(u1), axis=1) + 1e-300)))
    return EvolutionTrajectory(
        disc=disc, dtau=dtau, mode=mode, taus=taus, states=states,
        mode_coeffs=disc.mode_coefficient(states),
        alias_indicator=alias, blowup_tau=blowup_tau,
    )


# ---------------------------------------------------------------------------
# spacetime norms
# ---------------------------------------------------------------------------


def lq_norm(disc: SpectralDiscretization, u1, q: float):
    """(|S^{d-1}| int_0^1 |u1|^q rho^{d-1} drho)^{1/q} on the grid, d = disc.d.

    u1 may be a stack of first components (leading axis); the norms are
    then returned per state.
    """
    if q < 2.0:
        raise DomainError("q must be >= 2")
    if math.isinf(q):
        out = np.max(np.abs(u1), axis=-1)
    else:
        val = np.sum(disc.quad_weights * np.abs(u1) ** q, axis=-1)
        out = np.maximum(sphere_area(disc.d) * val, 0.0) ** (1.0 / q)
    return float(out) if np.ndim(out) == 0 else out


TAIL_SHARE = 0.05  # largest share of the L^p integral the last 10% may carry


def _strichartz_with_tail(g, taus, p: float):
    """(L^p_tau norm of g on taus, share of its p-th power in the last 10%)."""
    if math.isinf(p):
        return float(np.max(g)), 0.0
    gp = g ** p
    total = float(np.trapezoid(gp, taus))
    if total == 0.0:
        return 0.0, 0.0
    i0 = int(0.9 * (len(taus) - 1))
    tail = float(np.trapezoid(gp[i0:], taus[i0:]))
    return total ** (1.0 / p), tail / total


def _warn_tail(share, p, q, tau_max):
    if share > TAIL_SHARE:
        warnings.warn(
            f"trailing segment carries {share:.1%} of the L^{p} L^{q} "
            f"integral at horizon {tau_max:g}; tau_max may be too small",
            NotConvergedWarning, stacklevel=3,
        )


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
    rng = np.random.default_rng(seed)
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
        traj = evolve(disc, phi0, tau_max, dtau, "linear-perturbed")
        # the half horizon is a prefix of the same run
        half = len(traj.taus) // 2 + 1
        for j, (p, q) in enumerate(pairs):
            g = lq_norm(disc, traj.states[:, : disc.N], q)
            for out, n in ((ratios, len(g)), (ratios_half, half)):
                norm, share = _strichartz_with_tail(g[:n], traj.taus[:n], p)
                out[i, j] = norm / denom
                if share > worst[0]:
                    worst = (share, p, q, float(traj.taus[n - 1]))
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
    """CSV columns tau, rho-index, Phi1, Phi2 plus a JSON norm sidecar.

    The sidecar's L^q norms are those of the finite q of the Strichartz
    pairs of disc.d (``model.strichartz_pairs``).
    """
    disc = traj.disc
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
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
            str(q): [float(x) for x in
                     lq_norm(disc, traj.states[:, : disc.N], q)[::stride]]
            for _, q in strichartz_pairs(disc.d) if not math.isinf(q)
        },
    }
    with open(json_path, "w") as fh:
        json.dump(side, fh, indent=1)
