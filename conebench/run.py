"""conewave benchmark: time three paper workloads to a verified result.

Usage (from the root of a checkout):

    python3 conebench/run.py --workload spectrum|resolvent|evolution
                             --seed N --seconds S --trace 0|1

Each repetition runs the workload's CLI commands in a fresh interpreter
(``conebench/worker.py``) and checks every output against the paper's
tolerances.  ``--trace 0`` repeats the workload until ``--seconds`` have
passed and reports the medians of the end-to-end metrics; ``--trace 1``
runs it once untraced and once with the outside-in layer tracer and
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is the result as one JSON object.  Outputs, the run
record and the span file go to ``conebench_out/<workload>/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS, make_inputs, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "conebench_out"

SETUP_PROBES = 3      # extra interpreter starts per timed run, for setup_s
TIME_LIMIT = 170.0    # seconds a whole run may take

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
TRACE_ROWS = (("trace.spans", "count"), ("trace.overhead_s", "s"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Spawns worker processes for one workload and collects their results."""

    def __init__(self, workload, seed, out):
        self.commands = WORKLOADS[workload]
        self.out = out
        self.cli_out = out / "cli"
        self.config = out / "config.txt"
        self.inputs = make_inputs(workload, seed)
        self.deadline = time.monotonic() + TIME_LIMIT
        self.n = 0
        write_config(self.config, self.inputs, self.cli_out.relative_to(ROOT))

    def spawn(self, commands, trace=False):
        """Run one worker; return its result with ``setup_s`` added."""
        self.n += 1
        plan_path = self.out / f"plan{self.n}.json"
        result_path = self.out / f"result{self.n}.json"
        shutil.rmtree(self.cli_out, ignore_errors=True)
        self.cli_out.mkdir(parents=True)
        plan_path.write_text(json.dumps({
            "commands": list(commands), "config": str(self.config),
            "out": str(self.cli_out), "trace": trace,
            "result": str(result_path), "spans": str(self.out / "spans.csv"),
        }))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT:.0f} s reached")
        with open(self.out / "worker.log", "a") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(plan_path)],
                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker killed after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}; "
                             f"see {self.out / 'worker.log'}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_ready"] - t_spawn
        return result

    def rep(self, trace=False):
        return self.spawn(self.commands, trace)


def _ops(reps):
    ops = [op for r in reps for op in r["ops"]]
    return len(ops), [op["reason"] for op in ops if op["reason"]]


def timed_run(runner, seconds):
    """Median end-to-end metrics over repetitions filling ``seconds``."""
    probes = [runner.spawn(()) for _ in range(SETUP_PROBES)]
    reps = []
    t0 = time.monotonic()
    while not reps or time.monotonic() - t0 < seconds:
        # stop early rather than let the time limit kill a repetition
        if reps and runner.deadline - time.monotonic() < 2 * reps[-1]["wall_s"]:
            break
        reps.append(runner.rep())
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    record = {"environment": probes[0]["environment"],
              "setup_samples_s": [r["setup_s"] for r in probes + reps]}
    return END_TO_END, values, reps, record


def traced_run(runner):
    """Per-layer metrics of one traced repetition, plus tracing overhead."""
    probe = runner.spawn(())
    plain = runner.rep()
    traced = runner.rep(trace=True)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    record = {"environment": probe["environment"], "run_id": traced["run_id"],
              "untraced_wall_s": plain["wall_s"],
              "traced_wall_s": traced["wall_s"],
              "spans_file": str(runner.out / "spans.csv")}
    return PER_LAYER + TRACE_ROWS, values, [plain, traced], record


def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conewave" / "cli.py").is_file():
        print(f"conebench: no conewave sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    loadavg = _loadavg()
    runner = Runner(args.workload, args.seed, out)
    try:
        if args.trace:
            rows, values, reps, record = traced_run(runner)
        else:
            rows, values, reps, record = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"conebench: {exc}", file=sys.stderr)
        return 1

    attempted, failures = _ops(reps)
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg, "inputs": runner.inputs,
        "reps": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "ops")}
                 for r in reps],
        "metrics": values,
    })
    (out / "record.json").write_text(json.dumps(record, indent=1))

    for name, unit in rows:
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"{args.workload} ops attempted={attempted} failed={len(failures)} "
          f"reps={len(reps)}")
    for reason in failures:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
