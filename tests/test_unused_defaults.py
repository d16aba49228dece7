"""Guard against knobs that nothing turns and facts stated twice.

Every defaulted parameter of a function in ``src/conewave`` must be set
by some call in ``src/``, ``scripts/`` or ``tests/``; a default that no
call overrides is a constant and should be written as one.  Calls are
matched to definitions by name (the called name or attribute), so a
parameter counts as set when any call of that name passes it by keyword,
by position, or through ``*args`` / ``**kwargs``.

More checks keep each fact in one place: no function takes a
dimension ``d`` beside a discretization ``disc`` (which carries
``disc.d``), ``radialode.integrate`` is the only caller of
``_rk45.solve`` (and the only one that passes it value-only samples)
and ``_rk45.solve`` the only caller of its checkpoint sub-step
``_rk45._substep``, ``radialode.integrate`` is the only
builder of the Frobenius seeds, and it builds them for a whole batch of
lam, never one lam per loop pass.

The last checks keep work done once: the blowup fit's independent runs
(its T grid, each error-bar re-fit's start pair, the detuned pair of the
instability demo) are one stacked evolution each, and the nonlinearity
checks its dimension only on the first call for a d.

Finally, the library surface that only tests use is an explicit list
(``TEST_ONLY``): a top-level function or class of ``src/conewave`` that
no code in ``src/`` or ``scripts/`` names must be on it, so a single-lam
or test-only copy of a library path cannot come back unnoticed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from conewave import blowup as bl
from conewave import collocation as co
from conewave import model

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conewave"
CALLER_DIRS = ("src", "scripts", "tests")

# _rk45.solve(max_steps) is set only by the benchmark's self-test, which
# checks the step budget; the benchmark directory is not a caller here.
ALLOWED = {("_rk45", "solve", "max_steps")}

# Oracles of the paper's closed forms and checks of its statements; only
# tests call them.  A new test-only helper in src/ is added here on purpose.
TEST_ONLY = {
    "collocation.dissipativity_check", "collocation.gauge_residual",
    "collocation.norm_equivalence_check", "green.kernel_decay_scan",
    "green.perturbed_bessel_check", "model.admissible",
    "model.liouville_green_potential", "model.ode_blowup",
    "model.psi_from_u", "model.to_similarity", "model.varphi_inverse",
    "specfun.hyp2f1_deriv",
}


def _defaulted_params(tree):
    """(function name, [(param name, positional index or None)]) per def.

    A class's ``__init__`` is reported under the class name, which is how
    it is called.  Methods drop ``self``/``cls`` from the positional index.
    """
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                shift = 1 if cls is not None and positional and \
                    positional[0].arg in ("self", "cls") else 0
                first_default = len(positional) - len(args.defaults)
                params = [(a.arg, i - shift)
                          for i, a in enumerate(positional) if i >= first_default]
                params += [(a.arg, None) for a, dflt in
                           zip(args.kwonlyargs, args.kw_defaults) if dflt is not None]
                name = cls if child.name == "__init__" and cls else child.name
                if params:
                    out.append((name, params))
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def _calls_by_name():
    calls = {}
    for sub in CALLER_DIRS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = _called_name(node)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _called_name(node):
    """The called name or attribute of a call node, else None."""
    func = node.func if isinstance(node, ast.Call) else None
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _is_set(call, param, index):
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unset_defaults():
    calls = _calls_by_name()
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, params in _defaulted_params(ast.parse(path.read_text())):
            for param, index in params:
                if not any(_is_set(c, param, index) for c in calls.get(name, ())):
                    unset.add((path.stem, name, param))
    return unset


def test_every_default_is_set_by_some_call():
    assert unset_defaults() == ALLOWED


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_no_function_takes_d_beside_disc():
    both = []
    for stem, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"d", "disc"} <= names:
                    both.append(f"{stem}.{node.name}")
    assert both == []


def _calls(call, name, module):
    """Whether call is ``name(...)`` or ``module.name(...)``."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == module)


def _callers(name, module, keyword=None):
    """'module.function' of every call of name (bare or as module.name) in
    src/conewave, one entry per call; with keyword, only the calls that
    pass that keyword argument."""
    callers = []

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, stem, child.name)
                continue
            if (isinstance(child, ast.Call) and _calls(child, name, module)
                    and (keyword is None
                         or any(kw.arg == keyword for kw in child.keywords))):
                callers.append(f"{stem}.{owner}")
            visit(child, stem, owner)

    for stem, tree in _package_trees():
        visit(tree, stem, "<module>")
    return callers


def test_rk45_solve_is_called_only_by_integrate():
    assert _callers("solve", "_rk45") == ["radialode.integrate"]
    # one RK45 path: the checkpoint sub-step batch is part of solve
    assert _callers("_substep", "_rk45") == ["_rk45.solve"]


def test_only_integrate_passes_rk45_samples():
    # value-only points are declared by one caller, so no option elsewhere
    # chooses between a Hermite value and a sub-step
    assert _callers("solve", "_rk45", "samples") == ["radialode.integrate"]


def test_frobenius_seeds_are_built_only_by_integrate():
    # the Frobenius pairs at 0 and 1 are known to one function; the
    # resolvent's rho = 1 trace comes from the equation, not from them
    for name in ("seed_one", "seed_origin"):
        assert set(_callers(name, "frobenius")) == {"radialode.integrate"}


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def test_seeds_are_not_built_per_lambda():
    per_lambda = []
    for stem, tree in _package_trees():
        for loop in ast.walk(tree):
            if not isinstance(loop, _LOOPS):
                continue
            per_lambda += [f"{stem}:{node.lineno}" for node in ast.walk(loop)
                           if _called_name(node) in ("seed_origin", "seed_one")]
    assert per_lambda == []


@pytest.fixture
def evolve_calls(monkeypatch):
    """The number of states of each call of ``blowup.evolve``."""
    calls = []

    def counted(disc, phi0, *args, **kwargs):
        calls.append(1 if np.ndim(phi0) == 1 else len(phi0))
        return evolve(disc, phi0, *args, **kwargs)

    evolve = bl.evolve
    monkeypatch.setattr(bl, "evolve", counted)
    return calls


@pytest.fixture(scope="module")
def small_fit():
    return bl.fit_blowup_time(
        co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
        tau_max=4.0)


def test_fit_grid_is_one_evolution(evolve_calls):
    fit = bl.fit_blowup_time(
        co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
        tau_max=4.0)
    # the 5-point grid, then one run per secant step
    assert evolve_calls == [5] + [1] * (fit.n_evolutions - 5)


def test_refit_start_pair_is_one_evolution(small_fit, evolve_calls):
    err = bl.refinement_error(small_fit)
    starts = [i for i, m in enumerate(evolve_calls) if m == 2]
    assert len(starts) == 2 and starts[0] == 0
    assert set(evolve_calls) <= {1, 2}
    assert sum(evolve_calls) == err["n_evolutions_err"]


def test_instability_pair_is_one_evolution(evolve_calls):
    bl.instability_demo(co.build(4, 32), tau_max=1.0)
    assert evolve_calls == [2]  # the detuned pair


def test_nonlinearity_checks_d_once(monkeypatch):
    x = np.linspace(-0.5, 0.5, 7)
    first = model.nonlinearity(5, x)

    def fail(*args, **kwargs):
        raise AssertionError("check_dimension called again")

    monkeypatch.setattr(model, "check_dimension", fail)
    assert np.array_equal(model.nonlinearity(5, x), first)


def _names_in_library_code():
    """Every name, attribute and imported name in src/ and scripts/."""
    names = set()
    for sub in ("src", "scripts"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_test_only_surface_is_listed():
    used = _names_in_library_code()
    unused = {f"{stem}.{node.name}" for stem, tree in _package_trees()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used}
    assert unused == TEST_ONLY
