"""Which conewave functions the traced run wraps, and the per-layer metrics.

Each entry of ``SPANS`` names a layer function, the binding the tracer
patches, and the other bindings through which conewave calls it; the
tracer fails when any of them is gone.  Work counters are derived from
the wrapped calls' arguments and results, never from inside the program.
"""

import inspect

from tracer import child_coverage, summarize

COMMANDS = ("spectrum", "green-check", "laplace-compare", "fit-blowup",
            "strichartz")

# (span name, binding, other bindings that must name the same object)
SPANS = (
    ("cli.write", "conewave.cli:_write_csv", ()),
    ("cli.write", "conewave.cli:_write_manifest", ()),
    ("collocation.build", "conewave.collocation:build", ()),
    ("collocation.unstable_eigenvalues",
     "conewave.collocation:unstable_eigenvalues", ()),
    ("collocation.energy_norm", "conewave.collocation:energy_norm",
     ("conewave.evolve:energy_norm", "conewave.blowup:energy_norm")),
    ("collocation.mode_coefficient",
     "conewave.collocation:SpectralDiscretization.mode_coefficient", ()),
    ("rk45.solve", "conewave._rk45:solve",
     ("conewave.radialode:_rk45.solve", "conewave.green:_rk45.solve")),
    ("radialode.scan_halfplane", "conewave.radialode:scan_halfplane", ()),
    ("radialode._indicator_batch", "conewave.radialode:_indicator_batch", ()),
    ("radialode._winding_rect", "conewave.radialode:_winding_rect", ()),
    ("radialode.eigen_indicator", "conewave.radialode:eigen_indicator", ()),
    ("radialode.integrate", "conewave.radialode:integrate",
     ("conewave.green:integrate",)),
    ("specfun.c3_connection", "conewave.specfun:c3_connection",
     ("conewave.radialode:c3_connection",)),
    ("green.build_kernel", "conewave.green:build_kernel", ()),
    ("green.residual_checks", "conewave.green:residual_checks", ()),
    ("green._resolvent_batch", "conewave.green:_resolvent_batch", ()),
    ("green.semigroup_laplace", "conewave.green:semigroup_laplace", ()),
    ("evolve.evolve", "conewave.evolve:evolve", ("conewave.blowup:evolve",)),
    ("evolve.strichartz_suite", "conewave.evolve:strichartz_suite", ()),
    ("evolve.Propagator.step", "conewave.evolve:Propagator.step", ()),
    ("evolve.expm", "conewave.evolve:scipy.linalg.expm", ()),
    ("evolve.lq_norm", "conewave.evolve:lq_norm", ("conewave.blowup:lq_norm",)),
    ("blowup.fit_blowup_time", "conewave.blowup:fit_blowup_time", ()),
    ("blowup.stability_report", "conewave.blowup:stability_report", ()),
    ("blowup.instability_demo", "conewave.blowup:instability_demo", ()),
)

# matrix-vector products per Propagator.step: five e^{dt L/2} products in
# the Lawson RK4 step, one e^{dt L} product in the linear modes
_MATVECS = {"nonlinear": 5}


def _hooks(tracer):
    """Counting hooks keyed by span name; each performs the wrapped call."""
    import numpy as np
    from conewave import _rk45
    from conewave.errors import StepFailure

    solve_sig = inspect.signature(_rk45.solve)
    count = tracer.count

    def rk45_solve(call, args, kwargs):
        bound = solve_sig.bind(*args, **kwargs)
        arg = bound.arguments
        rhs = arg["f"]
        evals = [0]

        def counted(x, y):
            evals[0] += 1
            return rhs(x, y)

        arg["f"] = counted
        batch = np.atleast_2d(np.asarray(arg["y0"])).shape[0]
        checkpoints = arg.get("checkpoints")
        n_cp = 0 if checkpoints is None else len(checkpoints)
        dense = bool(arg.get("dense", False))
        try:
            result = call(*bound.args, **bound.kwargs)
        except StepFailure:
            count("rk45.step_failures")
            raise
        finally:
            # one RHS call seeds k1, each attempted step makes six more
            n = evals[0]
            steps = (n - 1) // 6 if n else 0
            count("rk45.rhs_evals", n)
            count("rk45.rhs_rows", n * batch)
            count("rk45.attempted_steps", steps)
            count("rk45.batch_sum", batch)
            count("rk45.checkpoints", n_cp)
            if n_cp:
                count("rk45.cp.attempted_steps", steps)
            if dense:
                count("rk45.dense.attempted_steps", steps)
        if dense and result[2] is not None:
            count("rk45.dense.accepted_steps", len(result[2].xa))
        return result

    def indicator_batch(call, args, kwargs):
        count("radialode._indicator_batch.lams", len(args[1]))
        return call(*args, **kwargs)

    def resolvent_batch(call, args, kwargs):
        n = len(args[1])
        count("green._resolvent_batch.lams", n)
        if tracer.active("green.semigroup_laplace"):
            count("green.omega_nodes", n)
        return call(*args, **kwargs)

    def evolve(call, args, kwargs):
        if tracer.active("blowup.fit_blowup_time"):
            count("blowup.evolutions")
        traj = call(*args, **kwargs)
        count("evolve.steps", len(traj.taus) - 1)
        count("evolve.early_stops", traj.blowup_tau is not None)
        return traj

    def propagator_step(call, args, kwargs):
        prop, u = args[0], args[1]
        n = len(u)
        count("evolve.step.flop", _MATVECS.get(prop.mode, 1) * 2 * n * n)
        return call(*args, **kwargs)

    return {
        "rk45.solve": rk45_solve,
        "radialode._indicator_batch": indicator_batch,
        "green._resolvent_batch": resolvent_batch,
        "evolve.evolve": evolve,
        "evolve.Propagator.step": propagator_step,
    }


def install(tracer):
    """Wrap every layer of ``SPANS``; undo the partial install on failure."""
    hooks = _hooks(tracer)
    try:
        for name, path, aliases in SPANS:
            tracer.wrap(name, path, aliases, hooks.get(name))
    except BaseException:
        tracer.uninstall()
        raise


def _ratio(a, b):
    return a / b if b else 0.0


# (metric name, unit) in report order; the values come from ``metrics``
PER_LAYER = (
    *((f"cli.{c}.{m}", u) for c in COMMANDS
      for m, u in (("s", "s"), ("cpu_s", "s"), ("covered", "ratio"))),
    ("cli.write.s", "s"),
    ("collocation.build.calls", "count"),
    ("collocation.build.s", "s"),
    ("collocation.unstable_eigenvalues.s", "s"),
    ("collocation.energy_norm.calls", "count"),
    ("collocation.energy_norm.s", "s"),
    ("collocation.mode_coefficient.calls", "count"),
    ("collocation.mode_coefficient.s", "s"),
    ("rk45.solve.calls", "count"),
    ("rk45.solve.s", "s"),
    ("rk45.solve.self_s", "s"),
    ("rk45.rhs_evals", "count"),
    ("rk45.rhs_rows", "count"),
    ("rk45.rhs_rows_per_s", "1/s"),
    ("rk45.attempted_steps", "count"),
    ("rk45.batch_mean", "count"),
    ("rk45.checkpoints", "count"),
    ("rk45.cp.attempted_steps", "count"),
    ("rk45.dense.accepted_steps", "count"),
    ("rk45.dense.accept_ratio", "ratio"),
    ("rk45.step_failures", "count"),
    ("radialode.scan_halfplane.s", "s"),
    ("radialode._indicator_batch.calls", "count"),
    ("radialode._indicator_batch.lams", "count"),
    ("radialode._indicator_batch.lams_per_call", "count"),
    ("radialode._indicator_batch.s", "s"),
    ("radialode._indicator_batch.self_s", "s"),
    ("radialode._winding_rect.calls", "count"),
    ("radialode._winding_rect.retries", "count"),
    ("radialode.eigen_indicator.calls", "count"),
    ("radialode.eigen_indicator.s", "s"),
    ("radialode.integrate.calls", "count"),
    ("radialode.integrate.s", "s"),
    ("specfun.c3_connection.calls", "count"),
    ("specfun.c3_connection.s", "s"),
    ("green.build_kernel.calls", "count"),
    ("green.build_kernel.s", "s"),
    ("green.residual_checks.calls", "count"),
    ("green.residual_checks.s", "s"),
    ("green._resolvent_batch.calls", "count"),
    ("green._resolvent_batch.lams", "count"),
    ("green._resolvent_batch.s", "s"),
    ("green._resolvent_batch.self_s", "s"),
    ("green.lams_per_s", "1/s"),
    ("green.semigroup_laplace.s", "s"),
    ("green.omega_nodes", "count"),
    ("evolve.evolve.calls", "count"),
    ("evolve.evolve.s", "s"),
    ("evolve.evolve.self_s", "s"),
    ("evolve.steps", "count"),
    ("evolve.early_stops", "count"),
    ("evolve.Propagator.step.calls", "count"),
    ("evolve.Propagator.step.s", "s"),
    ("evolve.step.gflop", "GFLOP"),
    ("evolve.step.gflop_s", "GFLOP/s"),
    ("evolve.expm.calls", "count"),
    ("evolve.expm.s", "s"),
    ("evolve.lq_norm.calls", "count"),
    ("evolve.lq_norm.s", "s"),
    ("blowup.fit_blowup_time.s", "s"),
    ("blowup.evolutions", "count"),
    ("blowup.s_per_evolution", "s"),
    ("blowup.stability_report.s", "s"),
    ("blowup.instability_demo.s", "s"),
)


def metrics(tracer, cpu_s):
    """Per-layer metric values of one traced run, keyed as in PER_LAYER.

    ``cpu_s`` maps each CLI command to the process CPU seconds it used.
    A layer the workload does not exercise reads 0.
    """
    stats = summarize(tracer.spans)
    c = tracer.counters
    out = {}

    def stat(name, field):
        return stats.get(name, {}).get(field, 0)

    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and layer in stats:
            out[name] = stat(layer, field)
        elif name in c:
            out[name] = c[name]
        else:
            out[name] = 0
    for command in COMMANDS:
        cov = child_coverage(tracer.spans, f"cli.{command}")
        out[f"cli.{command}.covered"] = min(cov) if cov else 0.0
        out[f"cli.{command}.cpu_s"] = cpu_s.get(command, 0.0)
    solve_s = stat("rk45.solve", "s")
    out["rk45.rhs_rows_per_s"] = _ratio(c["rk45.rhs_rows"], solve_s)
    out["rk45.batch_mean"] = _ratio(c["rk45.batch_sum"],
                                    stat("rk45.solve", "calls"))
    out["rk45.dense.accept_ratio"] = _ratio(
        c["rk45.dense.accepted_steps"], c["rk45.dense.attempted_steps"])
    out["radialode._winding_rect.retries"] = c["radialode._winding_rect.raised"]
    out["radialode._indicator_batch.lams_per_call"] = _ratio(
        c["radialode._indicator_batch.lams"],
        stat("radialode._indicator_batch", "calls"))
    out["green.lams_per_s"] = _ratio(c["green._resolvent_batch.lams"],
                                     stat("green._resolvent_batch", "s"))
    out["evolve.step.gflop"] = c["evolve.step.flop"] / 1e9
    out["evolve.step.gflop_s"] = _ratio(out["evolve.step.gflop"],
                                        stat("evolve.Propagator.step", "s"))
    out["blowup.s_per_evolution"] = _ratio(stat("blowup.fit_blowup_time", "s"),
                                           c["blowup.evolutions"])
    return out
