"""Tests of the benchmark itself: gates, tracer bindings, RK45 counters.

Run from the root of the repository:

    python3 -m pytest -q conebench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _write(path, obj):
    path.write_text(json.dumps(obj))


def _good_spectrum():
    unstable = {name: [] for name in workloads.FREE}
    unstable.update({name: [[1.0 + 1e-9, 0.0]] for name in workloads.PERTURBED})
    return {"agree": True, "unstable": unstable}


def _good_report():
    return {"monotone_bracket": True, "identity_rel_err": 1e-6,
            "sup_deviation": 2e-4}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_gates_pass_on_outputs_within_tolerance(tmp_path):
    _write(tmp_path / "spectrum_summary.json", _good_spectrum())
    _write(tmp_path / "laplace_compare_summary.json",
           {"rel_l2_difference": 7.0e-4})
    _write(tmp_path / "fit_blowup_report.json", _good_report())
    (tmp_path / "green_check.csv").write_text(
        "lambda,ode_residual,round_trip_error\n"
        "2+0i,1e-10,2e-10\n0.5+3i,3e-9,1e-9\n0.1+10i,5e-8,4e-8\n")
    for command, gate in workloads.GATES.items():
        assert gate(0, tmp_path) is None, command


def test_doctored_outputs_count_as_failed_ops_and_the_run_goes_on(tmp_path):
    spectrum = _good_spectrum()
    spectrum["agree"] = False
    _write(tmp_path / "spectrum_summary.json", spectrum)
    _write(tmp_path / "laplace_compare_summary.json",
           {"rel_l2_difference": 2e-3})
    _write(tmp_path / "fit_blowup_report.json", _good_report())
    codes = {"spectrum": 0, "laplace-compare": 0, "fit-blowup": 66,
             "strichartz": 0}
    seen = []

    def fake_main(argv):
        seen.append(argv[0])
        if argv[0] == "green-check":
            raise RuntimeError("solver blew up")
        return codes[argv[0]]

    commands = ("spectrum", "green-check", "laplace-compare", "fit-blowup",
                "strichartz")
    records = workloads.run_ops(commands, tmp_path / "cfg", tmp_path, fake_main)
    assert seen == list(commands)
    reasons = {r["command"]: r["reason"] for r in records}
    assert "agree is false" in reasons["spectrum"]
    assert "RuntimeError" in reasons["green-check"]
    assert "rel_l2_difference 0.002" in reasons["laplace-compare"]
    assert reasons["fit-blowup"] == "fit-blowup: exit 66"
    assert reasons["strichartz"] is None


def test_missing_output_is_a_failed_op_not_a_crash(tmp_path):
    records = workloads.run_ops(("laplace-compare",), tmp_path / "cfg",
                                tmp_path, lambda argv: 0)
    assert "unreadable output" in records[0]["reason"]


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("evolution", 7)
    assert a == workloads.make_inputs("evolution", 7)
    assert a != workloads.make_inputs("evolution", 8)
    assert 0.025 <= a["amplitude"] <= 0.05
    assert (workloads.make_inputs("spectrum", 1)
            == workloads.make_inputs("spectrum", 2))


# ---------------------------------------------------------------------------
# tracer bindings
# ---------------------------------------------------------------------------


def _bindings():
    """Every name bound in conewave's modules and classes, and expm."""
    import scipy.linalg

    import conewave.cli  # noqa: F401  (imports every layer)

    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "conewave" or mod_name.startswith("conewave."):
            for key, value in vars(module).items():
                out[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(mod_name, key, attr)] = v
    out[("scipy.linalg", "expm")] = scipy.linalg.expm
    return out


def test_tracer_wraps_every_binding_and_restores_every_original():
    import conewave.blowup
    import conewave.evolve
    import conewave.radialode

    before = _bindings()
    tr = tracing.Tracer("restore")
    layers.install(tr)
    try:
        assert conewave.blowup.evolve is not before[("conewave.blowup", "evolve")]
        assert conewave.blowup.evolve is conewave.evolve.evolve
        assert conewave.evolve.energy_norm is conewave.blowup.energy_norm
        assert (conewave.radialode.c3_connection
                is not before[("conewave.radialode", "c3_connection")])
        assert (vars(conewave.evolve.Propagator)["step"]
                is not before[("conewave.evolve", "Propagator", "step")])
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_a_renamed_binding_fails_loudly_and_leaves_nothing_patched(monkeypatch):
    import conewave.blowup

    monkeypatch.delattr(conewave.blowup, "evolve")
    before = _bindings()
    tr = tracing.Tracer("missing")
    with pytest.raises(tracing.BindingError, match="conewave.blowup:evolve"):
        layers.install(tr)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_a_rebound_alias_fails_loudly(monkeypatch):
    import conewave.radialode

    monkeypatch.setattr(conewave.radialode, "c3_connection", lambda *a: 0j)
    tr = tracing.Tracer("rebound")
    with pytest.raises(tracing.BindingError, match="no longer refers"):
        layers.install(tr)


def test_self_time_and_coverage():
    spans = [(1, 0, "cli.x", 0.0, 10.0, False),
             (2, 1, "a", 1.0, 5.0, False),
             (3, 2, "a", 2.0, 3.0, True),
             (4, 1, "b", 4.0, 9.0, False)]
    stats = tracing.summarize(spans)
    assert stats["cli.x"]["self_s"] == pytest.approx(2.0)
    assert stats["a"]["s"] == pytest.approx(4.0)  # nested call not recounted
    assert stats["a"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert tracing.child_coverage(spans, "cli.x") == [pytest.approx(0.8)]


# ---------------------------------------------------------------------------
# RK45 counters against an independent count
# ---------------------------------------------------------------------------


def _oscillator(calls):
    def f(x, y):
        calls.append(x)
        return np.stack([y[:, 1], -y[:, 0]], axis=1)
    return f


def _attempted_by_budget(solve, **kwargs):
    """Attempted steps: the smallest max_steps under which solve succeeds."""
    from conewave.errors import StepFailure

    k = 1
    while True:
        try:
            solve(_oscillator([]), max_steps=k, **kwargs)
            return k
        except StepFailure:
            k += 1


def _accepted_by_starts(calls):
    """Accepted steps: distinct start points of the six-call step attempts."""
    starts = []
    for i in range(1, len(calls), 6):
        x1, x6 = calls[i], calls[i + 4]        # x + h/5 and x + h
        x0 = x1 - (x6 - x1) / 4.0
        if not starts or abs(x0 - starts[-1]) > 1e-9:
            starts.append(x0)
    return len(starts)


def test_rk45_counters_match_an_independent_count():
    from conewave import _rk45

    y0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    dense = dict(x0=0.0, x_end=6.0, y0=y0, rtol=1e-9, atol=1e-12, h0=2.0,
                 dense=True)
    cps = np.linspace(0.5, 6.0, 12)
    with_cp = dict(x0=0.0, x_end=6.0, y0=y0, rtol=1e-9, atol=1e-12, h0=2.0,
                   checkpoints=cps)
    calls_dense, calls_cp = [], []
    tr = tracing.Tracer("toy")
    layers.install(tr)
    try:
        _rk45.solve(_oscillator(calls_dense), **dense)
        dense_counts = dict(tr.counters)
        _rk45.solve(_oscillator(calls_cp), **with_cp)
    finally:
        tr.uninstall()

    attempted = _attempted_by_budget(_rk45.solve, **dense)
    accepted = _accepted_by_starts(calls_dense)
    assert attempted > accepted  # the large first step is rejected
    assert dense_counts["rk45.rhs_evals"] == len(calls_dense)
    assert dense_counts["rk45.attempted_steps"] == attempted
    assert dense_counts["rk45.dense.accepted_steps"] == accepted
    assert dense_counts["rk45.rhs_rows"] == 3 * len(calls_dense)

    attempted_cp = _attempted_by_budget(_rk45.solve, **with_cp)
    c = tr.counters
    assert c["rk45.rhs_evals"] == len(calls_dense) + len(calls_cp)
    assert c["rk45.cp.attempted_steps"] == attempted_cp
    assert c["rk45.checkpoints"] == len(cps)
    m = layers.metrics(tr, {})
    assert m["rk45.solve.calls"] == 2
    assert m["rk45.batch_mean"] == 3
    assert m["rk45.dense.accept_ratio"] == pytest.approx(accepted / attempted)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

# a reduced problem that reaches the six counters below in seconds
SMALL = {"d": 4, "N": 48, "dtau": 0.01, "tau_max": 4.0, "omega_scan": 4.0,
         "eps_contour": 0.4, "omega": 10.0, "domega": 0.5,
         "amplitude": 0.04, "seed": 3}
DETERMINISTIC = ("rk45.rhs_evals", "rk45.attempted_steps",
                 "radialode._indicator_batch.lams", "green.omega_nodes",
                 "evolve.steps", "blowup.evolutions")


def _traced_worker(tmp_path, tag):
    out = tmp_path / tag
    out.mkdir()
    config = out / "config.txt"
    workloads.write_config(config, SMALL, out / "cli")
    plan = out / "plan.json"
    _write(plan, {"commands": ["spectrum", "laplace-compare", "fit-blowup"],
                  "config": str(config), "out": str(out / "cli"),
                  "trace": True, "result": str(out / "result.json"),
                  "spans": str(out / "spans.csv")})
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan)],
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=170)
    return json.loads((out / "result.json").read_text())["layers"]


def test_deterministic_counters_repeat_across_traced_runs(tmp_path):
    first = _traced_worker(tmp_path, "a")
    second = _traced_worker(tmp_path, "b")
    for name in DETERMINISTIC:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    counts = [n for n, unit in layers.PER_LAYER if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_run_fails_without_the_program_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "conebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "conebench/run.py", "--workload", "spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
