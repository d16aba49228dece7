#!/usr/bin/env python3
"""Blowup-time shift and spacetime smallness versus perturbation size.

Fits T* for a ladder of bump amplitudes and tabulates the shift |T*-1|
and the spacetime norm S_phys, each with its refinement error bar
(``blowup.refinement_error``); the shift is asymptotically linear in the
amplitude and S_phys quadratic, which shows up as the ratio columns
approaching constants.

    python scripts/amplitude_sweep.py [OUT_CSV] [--d D]

D is the dimension (default 4); the CSV's first column repeats it.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from conewave import blowup as bl
from conewave import collocation as co

AMPLITUDES = [0.05, 0.025, 0.0125, 0.00625]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?", type=Path,
                        default=Path("out/amplitude_sweep.csv"))
    parser.add_argument("--d", type=int, default=4)
    args = parser.parse_args()
    out, d, delta = args.out, args.d, 0.1
    out.parent.mkdir(parents=True, exist_ok=True)
    disc = co.build(d, 96)
    rows = []
    for amp in AMPLITUDES:
        v = bl.bump_perturbation(delta, amp)
        fit = bl.fit_blowup_time(disc, v, tau_max=12.0)
        rep = bl.stability_report(fit)
        err = bl.refinement_error(fit)
        rows.append((amp, fit.T_star, err["T_star_err"], abs(fit.T_star - 1.0),
                     rep["S_phys"], err["S_phys_err"]))
        print(f"amplitude {amp:.5f}: T* = {fit.T_star:.9f} "
              f"+/- {err['T_star_err']:.1e}, S_phys = {rep['S_phys']:.3e}")
    with open(out, "w") as fh:
        fh.write("d,amplitude,T_star,T_star_err,shift,S_phys,S_phys_err,"
                 "shift_per_amp,S_per_amp_sq\n")
        for amp, t, t_err, s, sp, sp_err in rows:
            fh.write(",".join([str(d)] + [f"{x:.17g}" for x in (
                amp, t, t_err, s, sp, sp_err, s / amp, sp / amp**2)]) + "\n")
    shifts = np.array([r[3] for r in rows])
    amps = np.array([r[0] for r in rows])
    print("shift/amplitude ratios:", np.round(shifts / amps, 4))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
