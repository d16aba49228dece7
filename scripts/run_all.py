#!/usr/bin/env python3
"""Run every batch command with the default configuration.

Produces out/<command>/ directories with CSVs and manifests; prints one
status line per command.  On a 2-core x86 box (Python 3.11, numpy 2.4)
the six commands take 7-9 s in all; the Laplace-inversion comparison at
its defaults (eps 0.1, Omega 200, domega 0.05) is 5.5-6.5 s of that,
and each of the others is 0.2-1.1 s.
"""

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
        print(f"{cmd[0]:16s} {status:8s} ({time.time() - t0:6.1f}s) -> {out}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
