#!/usr/bin/env python3
"""Run every batch command with the default configuration.

Produces out/<command>/ directories with CSVs and manifests; prints one
status line per command, with the manifest's `peak_rss_mb`, the peak
resident memory of this process so far.  On a 2-core x86 box (Python
3.11, numpy 2.4) the six commands take 5-6 s in all; the
Laplace-inversion comparison at its defaults (eps 0.1, Omega 200, domega
0.05) is 3.5-4.7 s of that, the blowup-time fit 0.6 s, and each of the
others is 0.1-0.3 s.  The peak reads ~43 MiB after spectrum and
green-check and ~55 MiB from laplace-compare on (a process running
laplace-compare alone peaks at 54.6 MiB, 90.5 MiB when the resolvent
kept its node values as whole arrays).
"""

import json
import sys
import time
from pathlib import Path

from conewave import cli

COMMANDS = [
    ["spectrum"],
    ["green-check"],
    ["laplace-compare"],
    ["evolve", "--mode", "nonlinear", "--tau-max", "8.0"],
    ["strichartz", "--tau-max", "16.0"],
    ["fit-blowup"],
]


def main():
    base = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    worst = 0
    for cmd in COMMANDS:
        out = base / cmd[0]
        t0 = time.time()
        code = cli.main(cmd + ["--out", str(out)])
        status = "ok" if code == 0 else f"exit {code}"
        manifest = out / f"{cmd[0].replace('-', '_')}_manifest.json"
        peak = json.loads(manifest.read_text())["peak_rss_mb"]
        print(f"{cmd[0]:16s} {status:8s} ({time.time() - t0:6.1f}s, "
              f"peak {peak:5.1f} MiB) -> {out}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
