"""Batch command-line front end.

Subcommands: spectrum | green-check | laplace-compare | evolve |
strichartz | fit-blowup.  Configuration comes from a flat key=value file
(--config) plus command-line overrides; every run writes CSVs with
17-significant-digit numbers and a manifest JSON naming the exact
configuration, so identical configs produce bit-identical CSV bodies.

Exit codes: 0 success, 2 spectrum method disagreement, 64 bad
configuration (a grid size N that ``collocation.build`` rejects at this d
included), 65 numerical failure, 66 acceptance threshold missed.
Once the configuration loads, the manifest records the exit code and
the warnings raised (each category and message once; each is also
printed once to stderr) on every exit, and the error text on 64 and 65.
Every manifest records `peak_rss_mb`, the process's peak resident memory
so far (`ru_maxrss`): the peak of this command, or of an earlier one in
the same process if that was higher.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import blowup as bl
from . import collocation as co
from . import evolve as ev
from . import green as gr
from . import radialode as ro
from .errors import GridSizeError, NumericsError
from .model import strichartz_pairs

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_CONFIG = 64
EXIT_NUMERIC = 65
EXIT_ACCEPT = 66


@dataclasses.dataclass
class RunConfig:
    d: int = 4
    N: int = 96
    dtau: float = 0.01
    tau_max: float = 12.0
    eps_contour: float = 0.1
    omega: float = 200.0
    domega: float = 0.05
    omega_scan: float = 50.0
    delta: float = 0.1
    amplitude: float = 0.05
    seed: int = 0
    out_dir: str = "out"

    def validate(self):
        if self.d < 3 or int(self.d) != self.d:
            raise ValueError("d must be an integer >= 3")
        if not (16 <= self.N <= 512):
            raise ValueError("N must lie in [16, 512]")
        if not (0 < self.dtau <= 0.5):
            raise ValueError("dtau must lie in (0, 0.5]")
        if not (0 < self.tau_max <= 50):
            raise ValueError("tau_max must lie in (0, 50]")
        if abs(round(self.tau_max / self.dtau) * self.dtau - self.tau_max) > 1e-9:
            raise ValueError("tau_max must be a multiple of dtau")
        if not (0 < self.eps_contour < 0.5):
            raise ValueError("eps_contour must lie in (0, 0.5)")
        if not (0 < self.omega <= 400):
            raise ValueError("omega must lie in (0, 400]")
        if not (0 < self.domega <= 1):
            raise ValueError("domega must lie in (0, 1]")
        if abs(round(self.omega / self.domega) * self.domega - self.omega) > 1e-9:
            raise ValueError("omega must be a multiple of domega")
        if not (0 < self.omega_scan <= 60):
            raise ValueError("omega_scan must lie in (0, 60]")
        if not (0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        if not (0 <= self.amplitude < math.inf):
            raise ValueError("amplitude must be finite and nonnegative")
        return self


def load_config(path=None, overrides=None) -> RunConfig:
    cfg = RunConfig()
    values = {}
    if path is not None:
        for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in values.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        cur = getattr(cfg, key)
        if isinstance(cur, int) and not isinstance(cur, bool):
            setattr(cfg, key, int(val))
        elif isinstance(cur, float):
            setattr(cfg, key, float(val))
        else:
            setattr(cfg, key, val)
    return cfg.validate()


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _config_hash(cfg: RunConfig) -> str:
    items = sorted(dataclasses.asdict(cfg).items())
    blob = ";".join(f"{k}={v}" for k, v in items).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig,
                    wall: float, extra=None):
    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "config_sha256": _config_hash(cfg),
        "versions": {
            "conewave": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall,
        # the process peak so far; Linux reports ru_maxrss in KiB
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / f"{command}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    d = cfg.d
    disc = co.build(d, 64)
    disc_fine = co.build(d, 128)
    # the free operator's dense spectrum comes from L0 on the same grids
    grids = {
        "perturbed": (disc, disc_fine),
        "free": tuple(dataclasses.replace(g, L_mat=g.L0_mat)
                      for g in (disc, disc_fine)),
    }
    scans = {method: ro.scan_halfplane(d, tuple(grids),
                                       omega_max=cfg.omega_scan, method=method)
             for method in ("shooting", "c3")}
    results = {}
    for i, (variant, (coarse, fine)) in enumerate(grids.items()):
        results[f"eig-{variant}"] = [
            (z, 1) for z in co.unstable_eigenvalues(
                coarse, fine, re_min=0.05, im_max=cfg.omega_scan)]
        for method, found in scans.items():
            results[f"{method}-{variant}"] = found[i]

    rows = []
    for name in ("eig-perturbed", "eig-free", "shooting-perturbed",
                 "shooting-free", "c3-perturbed", "c3-free"):
        for z, mult in results[name]:
            rows.append((name, float(z.real), float(z.imag), 1, 1))
        if not results[name]:
            rows.append((name, math.nan, math.nan, 0, 0))
    _write_csv(out_dir / "spectrum.csv",
               ["method", "re", "im", "refined", "stable_under_refinement"],
               rows)

    ok = True
    for name in ("eig-perturbed", "shooting-perturbed", "c3-perturbed"):
        roots = results[name]
        ok &= len(roots) == 1 and abs(roots[0][0] - 1.0) <= 1e-6
    for name in ("eig-free", "shooting-free", "c3-free"):
        ok &= len(results[name]) == 0
    summary = {
        "d": d,
        "window": {"re_min": 0.05, "im_max": cfg.omega_scan,
                   "trace_rtol": ro.TRACE_RTOL,
                   "edge_density": ro.EDGE_DENSITY},
        "unstable": {name: [[z.real, z.imag] for z, _ in results[name]]
                     for name in results},
        "agree": bool(ok),
    }
    with open(out_dir / "spectrum_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return EXIT_OK if ok else EXIT_DISAGREE


def _smooth_test_source(disc, remove_projection=True):
    f1 = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (1.0 - np.asarray(r) ** 2)
    f1p = lambda r: np.exp(-2.0 * np.asarray(r) ** 2) * (
        -4.0 * np.asarray(r) * (1.0 - np.asarray(r) ** 2) - 2.0 * np.asarray(r))
    f2 = lambda r: 0.5 * np.cos(np.asarray(r)) - 0.3
    fgrid = disc.stack(f1(disc.nodes), f2(disc.nodes))
    if not remove_projection:
        return gr.SourceTerm(f1, f1p, f2), fgrid
    c = float(np.real(disc.mode_coefficient(fgrid)))
    src = gr.SourceTerm(
        lambda r: f1(r) - 2.0 * c, f1p, lambda r: f2(r) - disc.d * c)
    return src, fgrid - disc.P_mat @ fgrid


def cmd_green_check(cfg: RunConfig, out_dir: Path) -> int:
    d = cfg.d
    disc = co.build(d, cfg.N)
    src, _ = _smooth_test_source(disc, remove_projection=False)
    rho_test = disc.nodes[(disc.nodes >= 0.05) & (disc.nodes <= 0.95)]
    rows = []
    ok = True
    lams = (2.0 + 0.0j, 0.5 + 3.0j, 0.1 + 10.0j)
    for lam, checks in zip(lams, gr.residual_checks(d, lams, "perturbed",
                                                    src, rho_test)):
        rows.append((f"{lam.real:g}+{lam.imag:g}i",
                     checks["ode_residual"], checks["round_trip"]))
        ok &= checks["ode_residual"] <= 1e-6 and checks["round_trip"] <= 1e-6
    _write_csv(out_dir / "green_check.csv",
               ["lambda", "ode_residual", "round_trip_error"], rows)
    return EXIT_OK if ok else EXIT_ACCEPT


def cmd_laplace_compare(cfg: RunConfig, out_dir: Path) -> int:
    d = cfg.d
    disc = co.build(d, cfg.N)
    src, phi0 = _smooth_test_source(disc)
    tau = 1.0
    traj = ev.evolve(disc, phi0, tau, cfg.dtau, "linear-perturbed")
    ts = np.real(traj.states[-1][: disc.N])
    lap = gr.semigroup_laplace(
        d, tau, src, disc.nodes, eps=cfg.eps_contour,
        omega_max=cfg.omega, domega=cfg.domega)
    w = np.maximum(disc.quad_weights, 0.0)
    rel = math.sqrt(float(np.sum(w * (lap - ts) ** 2)
                          / np.sum(w * ts**2)))
    rows = [(float(r), float(a), float(b), float(a - b))
            for r, a, b in zip(disc.nodes, ts, lap)]
    _write_csv(out_dir / "laplace_compare.csv",
               ["rho", "time_stepping", "laplace", "difference"], rows)
    with open(out_dir / "laplace_compare_summary.json", "w") as fh:
        json.dump({"tau": tau, "rel_l2_difference": rel,
                   "threshold": 1e-2}, fh, indent=1)
    return EXIT_OK if rel <= 1e-2 else EXIT_ACCEPT


def cmd_evolve(cfg: RunConfig, out_dir: Path, mode: str) -> int:
    disc = co.build(cfg.d, cfg.N)
    rng = np.random.default_rng(cfg.seed)
    f = co.random_smooth_pair(disc, rng)
    phi0 = f - disc.P_mat @ f
    traj = ev.evolve(disc, phi0, cfg.tau_max, cfg.dtau, mode)
    stride = max(1, len(traj.taus) // 200)
    ev.dump_trajectory(traj, out_dir / "trajectory.csv",
                       out_dir / "trajectory_norms.json", stride=stride)
    return EXIT_OK


def cmd_strichartz(cfg: RunConfig, out_dir: Path) -> int:
    disc = co.build(cfg.d, cfg.N)
    report = ev.strichartz_suite(disc, strichartz_pairs(cfg.d),
                                 tau_max=cfg.tau_max, dtau=cfg.dtau,
                                 seed=cfg.seed)
    rows = []
    ok = True
    for j, (p, q) in enumerate(report["pairs"]):
        for i in range(report["ratios"].shape[0]):
            rows.append((i, p, q, report["ratios"][i, j],
                         report["ratios_half"][i, j]))
        spread = report["spread"][j]
        drift = float(np.max(np.abs(
            report["ratios"][:, j] - report["ratios_half"][:, j])
            / report["ratios"][:, j]))
        ok &= spread <= 3.0 and drift <= 0.05
    _write_csv(out_dir / "strichartz.csv",
               ["sample", "p", "q", "ratio", "ratio_half_horizon"], rows)
    with open(out_dir / "strichartz_summary.json", "w") as fh:
        json.dump({"spread": report["spread"].tolist(), "ok": bool(ok)},
                  fh, indent=1)
    return EXIT_OK if ok else EXIT_ACCEPT


def cmd_fit_blowup(cfg: RunConfig, out_dir: Path) -> int:
    disc = co.build(cfg.d, cfg.N)
    v = bl.bump_perturbation(delta=cfg.delta, amplitude=cfg.amplitude)
    fit = bl.fit_blowup_time(disc, v, tau_max=cfg.tau_max, dtau=cfg.dtau)
    report = bl.stability_report(fit, tau_eval=min(10.0, cfg.tau_max))
    demo = bl.instability_demo(disc, tau_max=min(10.0, cfg.tau_max),
                               dtau=cfg.dtau)
    report["amplitude"] = cfg.amplitude
    report["slopes"] = {str(k): v for k, v in demo["slopes"].items()}
    report["monotone_bracket"] = fit.monotone
    report["bracket"] = [float(t) for t in fit.bracket]
    report["n_evolutions"] = fit.n_evolutions
    report["gauge_slope"] = fit.slope
    # written before the error bar, which may fail (exit 65) and whose
    # re-fits stay out of the fit's evolution count
    path = out_dir / "fit_blowup_report.json"
    path.write_text(json.dumps(report, indent=1, allow_nan=False))
    report.update(bl.refinement_error(fit))
    path.write_text(json.dumps(report, indent=1, allow_nan=False))
    ok = (1.0 - cfg.delta < fit.T_star < 1.0 + cfg.delta
          and report["identity_rel_err"] <= 1e-3
          and (report["sup_deviation"] is None
               or report["sup_deviation"] <= 1e-3))
    return EXIT_OK if ok else EXIT_ACCEPT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="conewave",
                     description="similarity-coordinate blowup laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["spectrum", "green-check", "laplace-compare", "evolve",
             "strichartz", "fit-blowup"]
    for name in names:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--tau-max", type=float, default=None)
        sp.add_argument("--amplitude", type=float, default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        if name == "evolve":
            sp.add_argument("--mode", type=str, default="linear-perturbed",
                            choices=ev._MODES)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "d": args.d, "N": args.N, "tau_max": args.tau_max,
        "amplitude": args.amplitude, "delta": args.delta, "seed": args.seed,
        "out_dir": args.out,
    }
    try:
        cfg = load_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"conewave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    failure = {}
    with warnings.catch_warnings(record=True) as caught:
        try:
            if args.command == "spectrum":
                code = cmd_spectrum(cfg, out_dir)
            elif args.command == "green-check":
                code = cmd_green_check(cfg, out_dir)
            elif args.command == "laplace-compare":
                code = cmd_laplace_compare(cfg, out_dir)
            elif args.command == "evolve":
                code = cmd_evolve(cfg, out_dir, args.mode)
            elif args.command == "strichartz":
                code = cmd_strichartz(cfg, out_dir)
            elif args.command == "fit-blowup":
                code = cmd_fit_blowup(cfg, out_dir)
            else:  # pragma: no cover
                return EXIT_CONFIG
        except (ValueError, GridSizeError) as exc:
            print(f"conewave: config error: {exc}", file=sys.stderr)
            code, failure = EXIT_CONFIG, {"error": str(exc)}
        except NumericsError as exc:
            print(f"conewave: numerical failure: {exc}", file=sys.stderr)
            code, failure = EXIT_NUMERIC, {"error": str(exc)}
    raised = []
    for w in caught:
        item = {"category": w.category.__name__, "message": str(w.message)}
        if item not in raised:
            raised.append(item)
            print(f"conewave: {item['category']}: {item['message']}",
                  file=sys.stderr)
    _write_manifest(out_dir, args.command.replace("-", "_"), cfg,
                    wall=time.time() - t0,
                    extra={"exit_code": code, "warnings": raised, **failure})
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
