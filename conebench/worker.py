"""One repetition of a workload, in a fresh interpreter.

Usage: python3 conebench/worker.py PLAN.json

PLAN.json names the CLI commands, the config file, the output directory,
the result file and whether to trace.  The worker imports
``conewave.cli`` (the set-up every invocation pays), runs the commands
through ``conewave.cli.main`` with their gates, and writes its result
as JSON.  A plan without commands only measures set-up.
"""

import time

import conewave.cli  # set-up ends once this import returns

T_READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402


def _blas_threads():
    """Thread count of the OpenBLAS numpy has loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    """Interpreter, library versions and BLAS threads of this process."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "conewave": conewave.cli.__file__,
    }


def main(plan_path):
    plan = json.loads(open(plan_path).read())
    result = {"t_ready": T_READY}
    commands = plan["commands"]
    if commands:
        import workloads

        tracer = None
        around = None
        cpu_s = {}
        if plan["trace"]:
            import layers
            import tracer as tracing

            tracer = tracing.Tracer(run_id=uuid.uuid4().hex[:12])
            layers.install(tracer)

            @contextlib.contextmanager
            def around(command):
                cpu0 = time.process_time()
                try:
                    with tracer.span(f"cli.{command}"):
                        yield
                finally:
                    cpu_s[command] = time.process_time() - cpu0

        t0 = time.monotonic()
        try:
            records = workloads.run_ops(commands, plan["config"], plan["out"],
                                        conewave.cli.main, around)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = time.monotonic() - t0
        result["ops"] = records
        if tracer is not None:
            tracing.write_spans(plan["spans"], tracer.spans, tracer.run_id)
            result["run_id"] = tracer.run_id
            result["layers"] = layers.metrics(tracer, cpu_s)
            result["layers"]["trace.spans"] = len(tracer.spans)
    else:
        result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(plan["result"], "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1])
